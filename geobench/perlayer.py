"""Per-layer metrics of a traced run.

Each traced op is one root span; per-layer figures are taken per op and
reported as the median over the run's traced ops. Where a workload does
not use a layer, its figure is 0 (for example `state.write_s` on
tile_join), so every traced run reports the same metric names.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import spans as tracing

STAGE_CLASSES = ("read", "map", "pip_join")
STAGE_FIELDS = ("wall_s", "udf_s", "rows_out", "bytes_out")

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
UNITS = {
    "ops.fwd_mpts_per_s_core": "Mpts/s",
    "ops.inv_mpts_per_s_core": "Mpts/s",
    "ops.stage_udf_s": "s",
    "cells.cell_id_mpts_per_s_core": "Mpts/s",
    "cells.lonlat_to_webmerc_mpts_per_s_core": "Mpts/s",
    "cells.tile_xy_mpts_per_s_core": "Mpts/s",
    "tiles.tile_assign_mpts_per_s_core": "Mpts/s",
    "join.pip_mpts_per_s_core": "Mpts/s",
    "join.stage_udf_s": "s",
    "join.hit_ratio": "ratio",
    "hash.splitmix64_mkeys_per_s_core": "Mkeys/s",
    **{f"stages.{c}.{f}": {"wall_s": "s", "udf_s": "s", "rows_out": "rows",
                           "bytes_out": "B"}[f]
       for c in STAGE_CLASSES for f in STAGE_FIELDS},
    "stages.boundary_overhead_s": "s",
    "exchange.count": "count",
    "exchange.rows_in": "rows",
    "exchange.rows_per_input_row": "ratio",
    "exchange.wall_s": "s",
    "driver.pull_s": "s",
    "driver.pull_rows": "rows",
    "state.write_s": "s",
    "state.partitions_written": "count",
    "state.bytes_per_row": "B/row",
    "knn.rounds_per_query": "rounds/query",
    "knn.partitions_per_query": "parts/query",
    "knn.bytes_read_per_query": "B/query",
    "knn.executions_per_query": "execs/query",
    "engine.exec_fixed_ms": "ms",
    "engine.boundary_us_per_row": "us/row",
    "engine.all_to_all_fixed_s": "s",
    "engine.sort_agg_us_per_key": "us/key",
    "trace.overhead_pct": "%",
}


def stage_class(op: dict) -> str | None:
    """Which stage class a Ray Data operator belongs to; exchanges are
    reported under `exchange.*` instead."""
    name = op["name"]
    if op["sub"] or tracing.is_all_to_all(name):
        return None
    if name.startswith("Read"):
        return "read"
    if "PIPJoiner" in name:
        return "pip_join"
    return "map"


def is_exchange_input(op: dict) -> bool:
    """The map half of an all-to-all: its output rows are the rows the
    exchange moves."""
    return op["sub"] and op["name"].endswith("Map")


def exchange_walls(ops: list[dict]) -> list[float]:
    """Elapsed seconds of each all-to-all among one op's operators: from
    the end of the operator that feeds it (its input is complete) to the
    start of the operator it feeds, so the barrier and the scheduling of
    its map and reduce tasks count, not only their task time. `ops` is in
    Ray Data's stats order: within an execution, downstream first, each
    all-to-all as its map sub-operator and then its other sub-operators.
    """
    def is_exchange(op):
        return op["sub"] or tracing.is_all_to_all(op["name"])

    def neighbour(k, span):
        """The operator at `k` if it is a non-exchange one of `span`."""
        if 0 <= k < len(ops) and ops[k]["span"] == span \
                and not is_exchange(ops[k]):
            return ops[k]
        return None

    walls, i = [], 0
    while i < len(ops):
        if not is_exchange(ops[i]):
            i += 1
            continue
        span, j = ops[i]["span"], i
        while (j + 1 < len(ops) and ops[j + 1]["sub"]
               and not is_exchange_input(ops[j + 1])
               and ops[j + 1]["span"] == span):
            j += 1
        group = ops[i:j + 1]
        feeder, fed = neighbour(j + 1, span), neighbour(i - 1, span)
        start = feeder["end"] if feeder else min(o["start"] for o in group)
        end = fed["start"] if fed else max(o["end"] for o in group)
        walls.append(end - start)
        i = j + 1
    return walls


def per_op(wl, tracer, root: int) -> dict:
    ops = tracer.operators_under(root)
    names = tracer.by_name(root)
    out = {f"stages.{c}.{f}": 0.0 for c in STAGE_CLASSES
           for f in STAGE_FIELDS}
    boundary = 0.0
    for op in ops:
        c = stage_class(op)
        if c is None:
            continue
        for f in STAGE_FIELDS:
            out[f"stages.{c}.{f}"] += op[f]
        if c != "read":  # actor UDF time can exceed task wall time
            boundary += max(op["wall_s"] - op["udf_s"], 0.0)
    out["stages.boundary_overhead_s"] = boundary
    exch = [op for op in ops
            if op["sub"] or tracing.is_all_to_all(op["name"])]
    rows_in = sum(op["rows_out"] for op in exch if is_exchange_input(op))
    out["exchange.count"] = float(sum(1 for op in exch
                                      if is_exchange_input(op)))
    out["exchange.rows_in"] = float(rows_in)
    out["exchange.rows_per_input_row"] = rows_in / wl.size["points"]
    out["exchange.wall_s"] = sum(exchange_walls(ops), 0.0)
    pulls = [s for s in tracer.descendants(root)
             if s["name"] in ("driver.pull_pandas", "engine.iter_batches")
             and not _inside(tracer, s, ("driver.pull_pandas",
                                         "engine.iter_batches"))]
    out["driver.pull_s"] = sum((s["end"] - s["start"] for s in pulls), 0.0)
    out["driver.pull_rows"] = float(sum(s.get("rows", 0) for s in pulls))
    out["state.write_s"] = names.get("state.resumable_write",
                                     {}).get("total_s", 0.0)
    triggers = [s for s in tracer.descendants(root)
                if s["name"].startswith("engine.")
                and not _inside(tracer, s, tuple(
                    "engine." + t for t in tracing.EXECUTION_TRIGGERS)
                    + ("engine.iter_batches",))]
    out["knn.executions_per_query"] = float(len(triggers)) \
        if wl.op_unit == "query" else 0.0
    return out


def _inside(tracer, span: dict, names: tuple) -> bool:
    """True if an ancestor of `span` has one of `names`."""
    by_id = {s["id"]: s for s in tracer.spans}
    p = span["parent"]
    while p is not None:
        if by_id[p]["name"] in names:
            return True
        p = by_id[p]["parent"]
    return False


def collect(wl, tracer, roots, kinds, plain, traced) -> dict:
    """Median over traced ops of each per-op figure, plus workload-level
    figures and the tracing overhead."""
    rows = [per_op(wl, tracer, r) for r in roots if r is not None]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    ctx = wl.context
    out["join.hit_ratio"] = (ctx["matched_pairs"]
                             / max(ctx["bbox_candidate_pairs"], 1)
                             if "matched_pairs" in ctx else 0.0)
    if "partitions_written" in ctx and wl.name == "tile_export":
        out["state.partitions_written"] = float(ctx["partitions_written"])
        out["state.bytes_per_row"] = (ctx["bytes_written"]
                                      / max(ctx["rows_written"], 1))
    else:
        out["state.partitions_written"] = 0.0
        out["state.bytes_per_row"] = 0.0
    if wl.op_unit == "query":
        st = [s for s, t in zip(wl.stats, kinds) if t]
        out["knn.rounds_per_query"] = _mean(s["rounds"] for s in st)
        out["knn.partitions_per_query"] = _mean(s["partitions_read"]
                                                for s in st)
        out["knn.bytes_read_per_query"] = _mean(s["bytes_read"] for s in st)
    else:
        for k in ("rounds", "partitions", "bytes_read"):
            out[f"knn.{k}_per_query"] = 0.0
    out["trace.overhead_pct"] = (statistics.median(traced)
                                 / statistics.median(plain) - 1.0) * 100.0
    return {k: (v, UNITS[k]) for k, v in out.items()}


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def isolated_udf_s(wl, tracer, stage) -> float:
    """UDF seconds of one stage run alone over the workload's table
    (Ray fuses the real pipeline's maps into one operator)."""
    import ray.data as rd

    with tracer.instrument(), tracer.span("isolate") as rec:
        stage(rd.read_parquet(wl.table)).materialize()
    return sum(op["udf_s"] for op in tracer.operators_under(rec["id"]))


def probes(wl, tracer, layers, collected: dict) -> dict:
    """Kernel rates and Ray Data engine costs on the same generated
    points and polygon layer for every workload and, on tile_join, the
    UDF time of the reproject stage run alone; the join stage's share is
    the rest of the fused operator's UDF time. The batch workloads also
    run `knn_probe`, so every traced run reports the knn layer."""
    from proj_ray import join, stages

    import inputs
    from workloads import TMERC

    pts = inputs.points(wl.seed, layers.KERNEL_POINTS)
    index = join.PolygonIndex(*inputs.polygons(wl.seed))
    out = layers.kernel_rates(pts["lon"], pts["lat"], index, TMERC)
    out.update(layers.engine_costs(inputs.arrow_table(pts)))
    out["ops.stage_udf_s"] = 0.0
    out["join.stage_udf_s"] = 0.0
    if wl.name == "tile_join":
        out["ops.stage_udf_s"] = isolated_udf_s(
            wl, tracer, lambda ds: stages.reproject(ds, TMERC))
        out["join.stage_udf_s"] = max(
            collected["stages.pip_join.udf_s"][0] - out["ops.stage_udf_s"],
            0.0)
    if wl.op_unit != "query":
        out.update(knn_probe(wl, tracer))
    return {k: (v, UNITS[k]) for k, v in out.items()}


def knn_probe(wl, tracer, queries: int = 12) -> dict:
    """The knn layer, which the batch workloads do not use: `knn_build`
    over the seeded subset of the knn_lookup workload, then `queries`
    traced single-point `knn_index` calls in that workload's mix."""
    import workloads

    knn = workloads.KnnLookup(wl.seed, os.path.join(wl.workdir, "knn"),
                              wl.scale)
    knn.setup(0)
    roots = []
    for _ in range(queries):
        with tracer.instrument(), tracer.span("knn_probe") as rec:
            knn.op()
        roots.append(rec["id"])
    return {
        "knn.rounds_per_query": _mean(s["rounds"] for s in knn.stats),
        "knn.partitions_per_query": _mean(s["partitions_read"]
                                          for s in knn.stats),
        "knn.bytes_read_per_query": _mean(s["bytes_read"]
                                          for s in knn.stats),
        "knn.executions_per_query": statistics.median(
            per_op(knn, tracer, r)["knn.executions_per_query"]
            for r in roots),
    }
