"""Watermark lateness: pandas window parity, bucket-boundary carry."""

import numpy as np
import pandas as pd


def _expected(df, late_us):
    d = df.sort_values("eid", kind="stable")
    wm = np.maximum.accumulate(d["t"].to_numpy(np.int64))
    lat = wm - d["t"].to_numpy(np.int64)
    out = pd.DataFrame({"g": d["g"].to_numpy(),
                        "late": lat > late_us, "lat": lat})
    return out.groupby("g", sort=True).agg(
        n_events=("lat", "size"), n_late=("late", "sum"),
        max_late_us=("lat", "max")).reset_index()


def test_watermark_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import watermark_lateness

    rng = np.random.default_rng(31)
    n = 8000
    df = pd.DataFrame({
        "eid": np.arange(n, dtype=np.int64),
        "t": rng.integers(0, 10**9, n).astype(np.int64),
        "g": rng.choice(list("abcd"), n)})
    df["ts"] = pd.to_datetime(df["t"], unit="us")
    # scramble storage order: the operator must re-establish arrival
    # order from eid, not trust block order
    sh = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    got = watermark_lateness(
        rd.from_pandas(sh[["eid", "ts", "g"]]).repartition(7),
        "eid", "ts", "g", late_us=10**8)
    exp = _expected(df, 10**8)
    got = got.rename(columns={"g": "g"}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp.astype(
        {"n_events": np.int64, "n_late": np.int64,
         "max_late_us": np.int64}), check_dtype=False)


def test_watermark_carry_crosses_buckets(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import watermark_lateness

    # one huge early timestamp makes EVERY later event late: the carry
    # must propagate it across all range buckets
    n = 1000
    t = np.full(n, 100, dtype=np.int64)
    t[0] = 10**9
    df = pd.DataFrame({"eid": np.arange(n, dtype=np.int64),
                       "ts": pd.to_datetime(t, unit="us"),
                       "g": ["x"] * n})
    out = watermark_lateness(rd.from_pandas(df).repartition(5),
                             "eid", "ts", "g", late_us=10**6)
    assert out.iloc[0]["n_late"] == n - 1
    assert out.iloc[0]["max_late_us"] == 10**9 - 100
