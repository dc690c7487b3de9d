"""NumPy twins of SQL expressions that the driver's DuckDB oracles use,
bit-identical on both sides.

They live in the library rather than in `__ray_entry__` because query
closures call them on workers: a reference to a function pickles as its
module, and a worker that unpickles one imports that module.
"""

from __future__ import annotations

import numpy as np


def geotag(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) in degrees of the int64 ids `i`:
    (i*61803 % 360000)/1000 - 180 and (i*75487 % 170000)/1000 - 85."""
    return ((i * 61803 % 360000) / 1000.0 - 180.0,
            (i * 75487 % 170000) / 1000.0 - 85.0)


def milli(col) -> np.ndarray:
    """`col` * 1000 rounded half away from zero to int64: SQL's
    CAST(round(col * 1000) AS BIGINT). `np.rint` would round half to
    even."""
    x = np.asarray(col, np.float64) * 1000
    r = np.trunc(x)
    # x - trunc(x) is exact, so the half test sees the true fraction
    return (r + np.where(np.abs(x - r) >= 0.5, np.sign(x), 0.0)) \
        .astype(np.int64)
