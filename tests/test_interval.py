"""Range-join operator: broadcast and bucketed-distributed paths must
agree with a pandas brute-force join on overlapping intervals,
half-open boundaries, key equality, and multi-match expansion."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from proj_ray import dsutil
from proj_ray.functions.interval import range_join


def _brute(lp, rp, key=None):
    out = []
    for _, l in lp.iterrows():
        for _, r in rp.iterrows():
            if key is not None and l["lk"] != r[key]:
                continue
            if r["lo"] <= l["v"] < r["hi"]:
                out.append((l["lid"], r["rid"]))
    return sorted(out)


@pytest.fixture(scope="module")
def sides():
    rng = np.random.default_rng(42)
    n, m = 400, 25
    lp = pd.DataFrame({
        "lid": np.arange(n, dtype=np.int64),
        "v": np.round(rng.uniform(0, 100, n), 3),
        "lk": rng.integers(0, 4, n),
    })
    lo = np.round(rng.uniform(0, 95, m), 3)
    rp = pd.DataFrame({
        "rid": np.arange(m, dtype=np.int64),
        "lo": lo,
        "hi": np.round(lo + rng.uniform(-2, 15, m), 3),  # some empty
        "rk": rng.integers(0, 4, m),
    })
    # force exact boundary collisions both sides
    lp.loc[0, "v"] = rp.loc[0, "lo"]
    lp.loc[1, "v"] = rp.loc[1, "hi"]
    return lp, rp


def _pairs(ds):
    df = ds.to_pandas()
    return sorted(zip(df["lid"].astype(np.int64),
                      df["rid"].astype(np.int64)))


def test_range_join_broadcast(sides):
    lp, rp = sides
    out = range_join(rd.from_pandas(lp).repartition(7),
                     rd.from_pandas(rp).repartition(3),
                     "v", "lo", "hi", right_cols=("rid",))
    assert _pairs(out) == _brute(lp, rp)


def test_range_join_broadcast_keyed(sides):
    lp, rp = sides
    out = range_join(rd.from_pandas(lp).repartition(7),
                     rd.from_pandas(rp),
                     "v", "lo", "hi", right_cols=("rid",),
                     key_col="rk", left_key="lk")
    assert _pairs(out) == _brute(lp, rp, key="rk")


def test_range_join_distributed_matches_broadcast(sides, monkeypatch):
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", -1)
    lp, rp = sides
    left = rd.from_pandas(lp).repartition(7)
    right = rd.from_pandas(rp).repartition(3)
    dist = range_join(left, right, "v", "lo", "hi",
                      right_cols=("rid",), bucket_width=8.0)
    assert _pairs(dist) == _brute(lp, rp)


def test_range_join_distributed_keyed(sides, monkeypatch):
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", -1)
    lp, rp = sides
    dist = range_join(rd.from_pandas(lp), rd.from_pandas(rp),
                      "v", "lo", "hi", right_cols=("rid",),
                      key_col="rk", left_key="lk", bucket_width=8.0)
    assert _pairs(dist) == _brute(lp, rp, key="rk")


def test_range_join_large_needs_bucket_width(sides, monkeypatch):
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", -1)
    lp, rp = sides
    with pytest.raises(ValueError):
        range_join(rd.from_pandas(lp), rd.from_pandas(rp),
                   "v", "lo", "hi")


def test_range_join_runs_right_side_once(ray_session, sides, tmp_path):
    """The route choice and the broadcast index come from ONE execution
    of the right side: its last map runs once per block, not once to
    count the rows and again to pull them."""
    lp, rp = sides
    log = tmp_path / "calls"

    def counted(b):
        with open(log, "a") as f:
            f.write("x\n")
        return b

    def right():
        return rd.from_pandas(rp).repartition(3).map_batches(
            counted, batch_format="pandas")

    right().materialize()
    once = len(log.read_text().splitlines())
    log.unlink()
    out = range_join(rd.from_pandas(lp), right(), "v", "lo", "hi",
                     right_cols=("rid",))
    assert _pairs(out) == _brute(lp, rp)
    assert len(log.read_text().splitlines()) == once
