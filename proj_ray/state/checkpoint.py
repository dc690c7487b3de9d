"""Resumable partitioned Parquet output with per-partition lineage.

Layout under `out_dir`:
  part-<pid>.parquet        one file per partition value
  _manifest/<pid>.json      written AFTER the part file (atomic rename):
                            rows, bytes, lineage (engine version, params)

A failed run leaves partitions without manifest entries; `resumable_write`
skips any partition whose manifest entry exists, so rerunning converges to
the same output as a single clean run (verified by
tests/test_stages.py::test_checkpoint_resume and
::test_partial_checkpoint_resume, on both routes).

`resumable_write` materializes its input once and picks a route by size
with `dsutil.driver_table`, on the same cap as
`pipelines.spatial.bucketed_sum` (`dsutil.DRIVER_FINISH_ROWS`):
- driver: a table that fits is pulled and its partitions are written
  from the driver, so no exchange runs;
- exchange: a larger table goes through `exchange.co_partition` on the
  partition column and a Ray task writes the partitions of each bucket.
Both routes run one function, which splits a frame with a pandas
groupby and writes each partition, so they write the same files and
manifest entries.

This is the explicit checkpoint/resume design the reference lacks
(SURVEY §4: "checkpoint/resume: none — explicit design needed").
"""

from __future__ import annotations

import json
import os
import tempfile


def finished_partitions(out_dir: str) -> set:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    return {os.path.splitext(f)[0] for f in os.listdir(mdir)
            if f.endswith(".json")}


def _write_one_partition(pid: str, df, out_dir: str, lineage: dict) -> dict:
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq

    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    mdir = os.path.join(out_dir, "_manifest")
    os.makedirs(mdir, exist_ok=True)
    part_path = os.path.join(out_dir, f"part-{pid}.parquet")
    table = pa.Table.from_pandas(df, preserve_index=False)
    # tmp + rename: a crash mid-write never leaves a manifest entry
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".parquet.tmp")
    os.close(fd)
    pq.write_table(table, tmp)
    os.replace(tmp, part_path)
    wall = max(time.time() - t0, 1e-9)
    entry = {
        "pid": pid,
        "rows": len(df),
        "bytes": os.path.getsize(part_path),
        # per-partition throughput metrics ride the manifest so a
        # resumed run can report end-to-end rates without re-reading
        "write_sec": round(wall, 6),
        "rows_per_s": round(len(df) / wall, 1),
        "lineage": lineage,
    }
    fd, tmp = tempfile.mkstemp(dir=mdir, suffix=".json.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, os.path.join(mdir, f"{pid}.json"))
    return entry


def resumable_write(ds, out_dir: str, partition_col: str,
                    lineage: dict | None = None) -> dict:
    """Write one parquet file per distinct `partition_col` value, skipping
    partitions already recorded in the manifest. Returns summary stats.

    Eager: `ds` is materialized once, here, and then written on the
    driver or exchange route (see the module docstring).

    Partition values must be stable across runs (derive them from input
    shard ids or key ranges, never from block boundaries). A partition
    is named by `str(value)`: a None key writes `part-None` and a float
    NaN `part-nan`, on both routes.
    """
    lineage = dict(lineage or {})
    import pandas as pd

    from proj_ray import __version__, dsutil
    from proj_ray.exchange import co_partition

    lineage.setdefault("engine_version", __version__)
    done = finished_partitions(out_dir)

    def write_frame(pdf: pd.DataFrame) -> pd.DataFrame:
        res = []
        # an empty table may come without columns to group on
        groups = pdf.groupby(partition_col, sort=False, dropna=False) \
            if len(pdf) else []
        for _, g in groups:
            pid = str(g[partition_col].iloc[0])
            if pid in done:
                res.append((pid, 0, True))
            else:
                entry = _write_one_partition(pid, g, out_dir, lineage)
                res.append((pid, entry["rows"], False))
        return pd.DataFrame(res, columns=["pid", "rows", "skipped"])

    import time

    t0 = time.time()
    ds, pdf = dsutil.driver_table(ds, dsutil.DRIVER_FINISH_ROWS)
    if pdf is None:
        res = co_partition(ds, partition_col, write_frame).take_all()
    else:
        res = write_frame(pdf).to_dict("records")
    wall = max(time.time() - t0, 1e-9)
    rows = sum(r["rows"] for r in res)
    return {
        "partitions": len(res),
        "written": sum(1 for r in res if not r["skipped"]),
        "skipped": sum(1 for r in res if r["skipped"]),
        "rows_written": rows,
        "wall_sec": round(wall, 3),
        "rows_per_s": round(rows / wall, 1),
    }
