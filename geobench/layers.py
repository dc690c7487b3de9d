"""Per-layer probes of a traced run: per-core kernel rates and Ray Data
engine costs.

Kernel rates time one public `proj_ray` function on one core (the
driver thread) over the workload's own generated points. Engine probes
run tiny identity pipelines that contain no repository code, so they
price Ray Data itself: the fixed cost of one execution, the per-row
cost of an operator boundary, the fixed cost of an all-to-all and the
per-key cost of its sort-aggregate.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_POINTS = 1 << 18
PIP_POINTS = 1 << 17
PIP_BATCH = 32 * 1024  # stages.spatial_join's default batch size


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_rates(lon: np.ndarray, lat: np.ndarray, index, proj: str) -> dict:
    """Million points (or keys) per second per core, best of three."""
    from proj_ray import cells, factory, tiles
    from proj_ray.functions import _hash

    lon = np.ascontiguousarray(lon[:KERNEL_POINTS])
    lat = np.ascontiguousarray(lat[:KERNEL_POINTS])
    n = len(lon)
    op = factory.create_operation(proj)
    lam, phi = np.radians(lon), np.radians(lat)
    zeros, infs = np.zeros(n), np.full(n, np.inf)
    fx, fy, _, _ = op.fwd((lam, phi, zeros, infs))
    mx, my = cells.lonlat_to_webmerc(lon, lat)
    tx, ty, _ = tiles.tile_assign(lon, lat, 14)
    keys = tx * np.int64(1 << 30) + ty

    def pip():
        for s in range(0, min(n, PIP_POINTS), PIP_BATCH):
            index.query(lon[s:s + PIP_BATCH], lat[s:s + PIP_BATCH])

    timed = {
        "ops.fwd_mpts_per_s_core": (lambda: op.fwd((lam, phi, zeros, infs)),
                                    n),
        "ops.inv_mpts_per_s_core": (lambda: op.inv((fx, fy, zeros, infs)),
                                    n),
        "cells.cell_id_mpts_per_s_core": (
            lambda: cells.cell_id(lon, lat, 14), n),
        "cells.lonlat_to_webmerc_mpts_per_s_core": (
            lambda: cells.lonlat_to_webmerc(lon, lat), n),
        "cells.tile_xy_mpts_per_s_core": (
            lambda: cells.tile_xy(mx, my, 14), n),
        "tiles.tile_assign_mpts_per_s_core": (
            lambda: tiles.tile_assign(lon, lat, 14), n),
        "hash.splitmix64_mkeys_per_s_core": (
            lambda: _hash.splitmix64(keys), n),
        "join.pip_mpts_per_s_core": (pip, min(n, PIP_POINTS)),
    }
    return {name: count / _best_seconds(fn) / 1e6
            for name, (fn, count) in timed.items()}


def _identity(batch):
    return batch


def _bucket(batch):
    batch["b"] = batch["id"] % 4
    return batch


def _median_seconds(fn, repeats: int) -> float:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def engine_costs(table, sort_keys: tuple = (1000, 20000)) -> dict:
    """Ray Data mechanics, probed with identity pipelines over `table`
    (an Arrow table, split into four blocks) and over `range`."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    n = table.num_rows
    step = -(-n // 4)
    blocks = [table.slice(a, step) for a in range(0, n, step)]

    def exec_one():
        rd.range(1, override_num_blocks=1).map_batches(_identity).take_all()

    def chain(k: int):
        def run():
            ds = rd.from_arrow(blocks)
            for _ in range(k):
                ds = ds.map_batches(_identity, batch_format="numpy")
            ds.materialize()
        return run

    def tiny_all_to_all():
        rd.range(64, override_num_blocks=4).map_batches(_bucket) \
            .groupby("b").map_groups(_identity).materialize()

    def sort_agg(keys: int):
        def run():
            rd.range(keys, override_num_blocks=4).groupby("id") \
                .aggregate(Sum("id")).materialize()
        return run

    exec_one()
    sort_agg(sort_keys[0])()
    one = _median_seconds(chain(1), 3)
    five = _median_seconds(chain(5), 3)
    small = _median_seconds(sort_agg(sort_keys[0]), 2)
    big = _median_seconds(sort_agg(sort_keys[1]), 2)
    return {
        "engine.exec_fixed_ms": _median_seconds(exec_one, 7) * 1e3,
        "engine.boundary_us_per_row": (five - one) / (4 * n) * 1e6,
        "engine.all_to_all_fixed_s": _median_seconds(tiny_all_to_all, 3),
        "engine.sort_agg_us_per_key":
            (big - small) / (sort_keys[1] - sort_keys[0]) * 1e6,
    }
