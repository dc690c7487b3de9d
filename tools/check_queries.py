"""Local replica of the driver's correctness gate: run each queries()
entry and its oracle_sql() side by side, compare row count + schema +
order-insensitive values. Usage: python tools/check_queries.py [sf_dir]

DuckDB runs under a memory limit of a quarter of the host's RAM (its
default is 80%, and q19's and q62's sf0.1 oracles grew the checker past
13 GB next to Ray's workers) and spills to a fresh temp directory, not
to `.tmp/` in the working directory, removed on exit also when the run
is interrupted by an exception."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    try:
        import pyarrow as pa

        if isinstance(obj, pa.Table):
            return obj.to_pandas()
    except ImportError:
        pass
    return obj.to_pandas()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return (f"SCHEMA mismatch: ray={sorted(ray_df.columns)} "
                f"sql={sorted(sql_df.columns)}")
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT mismatch: ray={len(ray_df)} sql={len(sql_df)}"
    a = canon(ray_df)
    b = canon(sql_df)
    for c in a.columns:
        if a[c].dtype != b[c].dtype:
            return (f"DTYPE mismatch col={c} ray={a[c].dtype} "
                    f"sql={b[c].dtype} (driver hash would differ)")
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(a[c].dtype, np.floating):
            if not np.allclose(av.astype(float), bv.astype(float),
                               rtol=0, atol=1e-9, equal_nan=True):
                bad = np.flatnonzero(~np.isclose(
                    av.astype(float), bv.astype(float), rtol=0, atol=1e-9))
                return (f"VALUES mismatch col={c} rows={bad[:3]} "
                        f"ray={av[bad[:3]]} sql={bv[bad[:3]]}")
        else:
            if not (av == bv).all():
                bad = np.flatnonzero(av != bv)
                return (f"VALUES mismatch col={c} rows={bad[:3]} "
                        f"ray={av[bad[:3]]} sql={bv[bad[:3]]}")
    return "OK"


def duckdb_connect(temp_dir: str):
    """A DuckDB connection limited to a quarter of the host's RAM that
    spills to `temp_dir`."""
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return duckdb.connect(config={
        "memory_limit": f"{ram // 4 // 2 ** 20}MB",
        "temp_directory": temp_dir})


def main(sf_dir: str, only: list[str]) -> int:
    temp_dir = tempfile.mkdtemp(prefix="check_queries-")
    con = duckdb_connect(temp_dir)
    try:
        return check(sf_dir, only, con)
    finally:
        con.close()
        shutil.rmtree(temp_dir, ignore_errors=True)


def check(sf_dir: str, only: list[str], con) -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count(),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    qs = E.queries()
    oracles = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"{name:24s} RAY ERROR: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        try:
            sql_df = con.execute(oracles[name]).fetchdf()
        except Exception as exc:  # noqa: BLE001
            print(f"{name:24s} SQL ERROR: {exc}")
            failures += 1
            continue
        verdict = compare(name, res, sql_df)
        status = "ok" if verdict == "OK" else "FAIL"
        print(f"{name:24s} rows={len(res):7d} ({dt:5.1f}s) {status} "
              f"{'' if verdict == 'OK' else verdict}")
        if verdict != "OK":
            failures += 1
    ray.shutdown()
    return failures


if __name__ == "__main__":
    args = sys.argv[1:]
    sf = args[0] if args and not args[0].startswith("q") \
        else "/root/testdata/sf0.01"
    only = [a for a in args if a.startswith("q")]
    raise SystemExit(main(sf, only))
