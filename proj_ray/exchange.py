"""The one exchange primitive: co-partition a Dataset on a key.

Every join and per-key aggregate that has to bring equal keys together
across blocks goes through `co_partition`. It hashes the key into a
small int bucket domain (`_bk`), sorts on that int column and runs the
caller's per-bucket function, so the all-to-all sorts at most
`N_BUCKETS` distinct values and all per-key work stays vectorized in
the caller's pandas code. A bucket holds many keys: `fn` must group by
the key itself.

The hash is `functions._hash.stable_mod`: splitmix64 for integer
columns, pandas' SipHash for everything else (strings, floats, None),
so a value buckets the same way in every block and every process. Two
inputs co-partition when their key columns have the same type: the
integer 3 and the float 3.0 hash differently. A list of key columns
hashes as one key.
"""

from __future__ import annotations

import numpy as np

from proj_ray.functions._hash import splitmix64, stable_u64


# the bucket count of every exchange: each bucket is one reducer group
# of the sort and one `fn` call
N_BUCKETS = 64


def _key_u64(col) -> np.ndarray:
    """uint64 hash of one key column, fixed by the column's Arrow type
    rather than by whether this block happens to hold nulls (an int
    column with nulls comes out of Arrow as float). A pandas column
    hashes as its Arrow conversion, so a value hashes the same in a
    pandas block and in an Arrow block."""
    import pyarrow as pa

    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col, from_pandas=True)
    if pa.types.is_integer(col.type):
        col = col.fill_null(0)
    return stable_u64(col.to_numpy(zero_copy_only=False))


def co_partition(ds, key, fn, batch_format: str = "pandas"):
    """Lazily co-partition `ds` (a Dataset, or a list of Datasets to
    join) on `key` (a column name or a list of them) and return the
    concatenation of `fn(frame)` over the buckets.

    `fn` gets one pandas frame per bucket (an Arrow table with
    `batch_format="pyarrow"`): every row of each key in that bucket,
    without the `_bk` column, and returns a frame of the same kind.
    The `_bk` column is added by a map that Ray fuses into the
    caller's last map and that keeps each block's format, so a pandas
    block is not converted to Arrow and back around the sort. End the
    caller's map in a `batch_size` (or pass `dsutil.merged(ds,
    columns)`) to merge small input blocks before the sort. To join
    inputs, tag their rows and pass `[a, b]`: each gets its own `_bk`
    map before the union (a map after a union would run as its own
    operator, since Ray fuses no map into a union)."""
    import pandas as pd
    import pyarrow as pa

    keys = [key] if isinstance(key, str) else list(key)
    nb = np.uint64(N_BUCKETS)

    def add_bk(b):
        pandas = isinstance(b, pd.DataFrame)
        col = b.__getitem__ if pandas else b.column
        h = _key_u64(col(keys[0]))
        for k in keys[1:]:
            h = splitmix64(h ^ _key_u64(col(k)))
        bk = (h % nb).astype(np.int64)
        if pandas:
            return b.assign(_bk=bk)
        return b.append_column("_bk", pa.array(bk))

    tagged = [d.map_batches(add_bk, batch_format=None)
              for d in (ds if isinstance(ds, list) else [ds])]
    joined = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if batch_format == "pyarrow":
        def run(g):
            return fn(g.drop_columns(["_bk"]))
    else:
        def run(g):
            return fn(g.drop(columns=["_bk"]))
    return joined.groupby("_bk").map_groups(run, batch_format=batch_format)
