"""Cluster job entry point for the headline spatial pipeline.

Submit to a Ray cluster exactly as the north-star prescribes:

    ray job submit --working-dir /root/repo -- \
        python jobs/headline_job.py --rows 115200000 \
        --out /tmp/headline_out --zoom 7

The job synthesizes (or at 100 TB, reads) the images table shard-wise
on workers, runs the fused reproject -> cell -> tile -> PIP stage, and
writes PER-TILE-PREFIX partitioned parquet through the resumable
checkpoint layer — re-submitting after a failure skips finished
partitions (manifest + lineage + throughput metrics per partition).
Prints one JSON metrics line.

This script owns its Ray session (CLI entry point); the library and
__ray_entry__ never call ray.init().
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# repo root on sys.path whether invoked from the repo or a job working dir
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=2_400_000)
    ap.add_argument("--zoom", type=int, default=7)
    ap.add_argument("--out", default="/tmp/headline_job_out")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only for local runs; on a cluster the "
                         "resources come from the cluster itself")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        if args.num_cpus:
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False)
        else:
            ray.init()  # on a cluster: ray job submit provides the address

    import numpy as np
    import pandas as pd

    from proj_ray import dsutil
    from proj_ray.pipelines.spatial import (default_polygon_index,
                                            headline_spatial)
    from proj_ray.state import resumable_write

    t0 = time.time()
    matched, tiles = headline_spatial(
        args.rows,
        num_cpus=dsutil.cluster_cpus(),
        zoom=args.zoom, index=default_polygon_index(),
        combine="tiles")
    wall = time.time() - t0

    # partition by tile-key prefix: stable across runs, bounded count
    tiles = tiles.copy()
    tiles["part"] = (tiles["tile_key"].to_numpy(np.int64)
                     % 64).astype(np.int64).astype(str)
    import ray.data as rd

    st = resumable_write(
        rd.from_pandas(tiles), args.out, "part",
        lineage={"rows": args.rows, "zoom": args.zoom,
                 "job": "headline_spatial"})
    print(json.dumps({
        "metric": "headline job rows/s",
        "value": round(args.rows / wall, 1),
        "unit": "rows/s",
        "rows": args.rows,
        "matched": int(matched),
        "pipeline_sec": round(wall, 3),
        "write": st,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
