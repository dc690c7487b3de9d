"""asof_join / window_aggregate parity tests (proj_ray/functions/temporal.py).

The broadcast probe and the distributed one-shuffle merge must produce
the identical row set; window_aggregate must match a pandas oracle.
"""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from proj_ray import dsutil
from proj_ray.functions.temporal import asof_join, window_aggregate


def _mk(seed=7, n_left=400, n_right=150, n_keys=23):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "lid": np.arange(n_left, dtype=np.int64),
        "k": rng.integers(0, n_keys, n_left).astype(np.int64),
        "lt": rng.integers(0, 10_000, n_left).astype(np.int64),
    })
    right = pd.DataFrame({
        "rid": np.arange(n_right, dtype=np.int64),
        "rk": rng.integers(0, n_keys, n_right).astype(np.int64),
        # duplicate timestamps on purpose to exercise the tie rule
        "rt": rng.integers(0, 10_000, n_right).astype(np.int64) // 100 * 100,
        "val": rng.normal(size=n_right),
    })
    return left, right


def _oracle(left, right, direction):
    out = []
    for _, lr in left.iterrows():
        cand = right[right["rk"] == lr["k"]]
        if direction == "backward":
            cand = cand[cand["rt"] <= lr["lt"]]
            if len(cand) == 0:
                continue
            best_t = cand["rt"].max()
            row = cand[cand["rt"] == best_t].sort_values("rid").iloc[-1]
        else:
            cand = cand[cand["rt"] >= lr["lt"]]
            if len(cand) == 0:
                continue
            best_t = cand["rt"].min()
            row = cand[cand["rt"] == best_t].sort_values("rid").iloc[0]
        out.append((lr["lid"], row["rid"], row["val"]))
    return pd.DataFrame(out, columns=["lid", "rid", "val"]) \
        .astype({"lid": np.int64, "rid": np.int64}) \
        .sort_values("lid").reset_index(drop=True)


def _run(left, right, direction, cap):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dsutil, "BROADCAST_ROWS", cap)
        out = asof_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right).repartition(3),
            "k", "rk", "lt", "rt",
            right_cols=("rid", "val"), tie_col="rid",
            direction=direction,
        ).to_pandas()
    return out[["lid", "rid", "val"]].sort_values("lid") \
        .reset_index(drop=True).astype({"lid": np.int64, "rid": np.int64})


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_asof_join_matches_oracle_both_paths(ray_session, direction):
    left, right = _mk()
    want = _oracle(left, right, direction)
    got_b = _run(left, right, direction, cap=10**9)   # broadcast path
    got_d = _run(left, right, direction, cap=0)       # distributed path
    for got in (got_b, got_d):
        assert len(got) == len(want)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_asof_join_timestamp_dtype(ray_session):
    left = pd.DataFrame({
        "lid": np.arange(6, dtype=np.int64),
        "k": np.zeros(6, dtype=np.int64),
        "lt": pd.to_datetime(
            ["2024-01-01", "2024-01-03", "2024-01-05",
             "2024-01-07", "2024-01-02", "2023-12-31"]),
    })
    right = pd.DataFrame({
        "rid": np.arange(3, dtype=np.int64),
        "rk": np.zeros(3, dtype=np.int64),
        "rt": pd.to_datetime(["2024-01-01", "2024-01-04", "2024-01-06"]),
        "val": [1.0, 2.0, 3.0],
    })
    out = _run(left, right, "backward", cap=10**9)
    # lid 5 (2023-12-31) has no match; others map to latest rt <= lt
    assert list(out["lid"]) == [0, 1, 2, 3, 4]
    assert list(out["rid"]) == [0, 0, 1, 2, 0]


def test_window_aggregate_matches_pandas(ray_session):
    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame({
        "ts": rng.integers(0, 40, n).astype(np.int64) * 250_000,
        "grp": rng.integers(0, 4, n).astype(np.int64),
        "v": rng.normal(size=n),
    })
    every = 1_000_000
    got = window_aggregate(
        rd.from_pandas(df).repartition(5), "ts", "v",
        every_us=every, by="grp").to_pandas() \
        .sort_values(["window_start", "grp"]).reset_index(drop=True)

    o = df.copy()
    o["window_start"] = (o["ts"] // every) * every
    o["vc"] = np.rint(o["v"] * 10_000).astype(np.int64)
    want = o.groupby(["window_start", "grp"], as_index=False).agg(
        sum_value=("vc", "sum"), n=("vc", "size"))
    want["sum_value"] = want["sum_value"] / 10_000
    want = want.sort_values(["window_start", "grp"]).reset_index(drop=True)

    assert len(got) == len(want)
    assert np.array_equal(got["window_start"], want["window_start"])
    assert np.array_equal(got["grp"], want["grp"])
    assert np.allclose(got["sum_value"], want["sum_value"])
    assert np.array_equal(got["n"].astype(np.int64), want["n"])


def test_rolling_window_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.temporal import rolling_window

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, n),
        "ts": rng.integers(0, 10_000, n).astype(np.int64),
        "value": rng.normal(10, 5, n).round(2),
    })
    out = rolling_window(rd.from_pandas(df), "user_id", "ts", "value",
                         "event_id", preceding=3, scale=100).to_pandas()
    out = out.sort_values("event_id").reset_index(drop=True)

    s = df.sort_values(["user_id", "ts", "event_id"]).copy()
    s["c"] = np.rint(s["value"] * 100).astype(np.int64)
    g = s.groupby("user_id")["c"]
    s["win_sum_c"] = g.transform(
        lambda x: x.rolling(4, min_periods=1).sum()).astype(np.int64)
    s["win_n"] = g.transform(
        lambda x: x.rolling(4, min_periods=1).count()).astype(np.int64)
    exp = s.sort_values("event_id").reset_index(drop=True)
    assert np.array_equal(out["win_sum_c"], exp["win_sum_c"])
    assert np.array_equal(out["win_n"], exp["win_n"])


def test_track_length_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.temporal import track_length

    rng = np.random.default_rng(13)
    n = 3000
    df = pd.DataFrame({
        "k": rng.integers(0, 25, n),
        "o": np.arange(n, dtype=np.int64),
        "lon": rng.uniform(-180, 180, n),
        "lat": rng.uniform(-85, 85, n),
    })
    got = track_length(rd.from_pandas(df), "k", "o").to_pandas()
    got = got.sort_values("k").reset_index(drop=True)

    R = 6371000.0
    s = df.sort_values(["k", "o"], kind="stable")
    lam, phi = np.radians(s["lon"].to_numpy()), \
        np.radians(s["lat"].to_numpy())
    kk = s["k"].to_numpy()
    same = kk[1:] == kk[:-1]
    a = np.sin((phi[1:] - phi[:-1]) / 2) ** 2 \
        + np.cos(phi[:-1]) * np.cos(phi[1:]) \
        * np.sin((lam[1:] - lam[:-1]) / 2) ** 2
    d = np.rint(2 * R * np.arcsin(np.sqrt(np.minimum(a, 1)))
                * 10000).astype(np.int64)
    exp = (pd.DataFrame({"k": kk[1:][same], "d": d[same]})
           .groupby("k", as_index=False)
           .agg(track_tmm=("d", "sum"), n_legs=("d", "size"))
           .sort_values("k").reset_index(drop=True))
    assert np.array_equal(got["k"], exp["k"])
    assert np.array_equal(got["track_tmm"], exp["track_tmm"])
    assert np.array_equal(got["n_legs"], exp["n_legs"])


def test_track_densify_slerp_properties(ray_session):
    """Interpolated points lie ON the great circle (unit sphere, zero
    scalar triple product with the endpoints), are strictly interior
    (angle monotone in j), and a degenerate leg (repeated point)
    emits the leg start."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.temporal import track_densify

    pts = pd.DataFrame({
        "k": [1, 1, 1, 2, 2],
        "o": [0, 1, 2, 0, 1],
        "lon": [10.0, 40.0, 40.0, -170.0, 170.0],
        "lat": [10.0, 30.0, 30.0, 5.0, -5.0],
    })
    out = track_densify(rd.from_pandas(pts), "k", "o",
                        k=3).to_pandas()
    # legs: (1: 0->1 real, 1->2 degenerate), (2: antimeridian leg)
    assert len(out) == 9
    lon = out["lon_f"].to_numpy() / 1e7
    lat = out["lat_f"].to_numpy() / 1e7

    def unit(lo, la):
        lo, la = np.radians(lo), np.radians(la)
        return np.array([np.cos(la) * np.cos(lo),
                         np.cos(la) * np.sin(lo), np.sin(la)])

    leg1 = out[(out["k"] == 1) & (out["leg"] == 0)]
    p0, p1 = unit(10, 10), unit(40, 30)
    nrm = np.cross(p0, p1)
    angs = []
    for _, r in leg1.sort_values("j").iterrows():
        pe = unit(r["lon_f"] / 1e7, r["lat_f"] / 1e7)
        assert abs(np.dot(nrm, pe)) < 1e-6  # on the great circle
        angs.append(np.arccos(np.clip(np.dot(p0, pe), -1, 1)))
    assert angs == sorted(angs) and 0 < angs[0] and \
        angs[-1] < np.arccos(np.dot(p0, p1))
    # degenerate leg emits the start point
    degen = out[(out["k"] == 1) & (out["leg"] == 1)]
    assert (degen["lon_f"] == int(np.floor(40.0 * 1e7 + 0.5))).all()
    assert (degen["lat_f"] == int(np.floor(30.0 * 1e7 + 0.5))).all()
    # antimeridian leg interpolates across 180, not the long way
    am = out[out["k"] == 2]
    assert (np.abs(np.abs(am["lon_f"] / 1e7) - 180.0) < 15.0).all()


def test_funnel_counts_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import funnel_counts

    rng = np.random.RandomState(9)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    for i in range(2000):
        rows.append({
            "user_id": int(rng.randint(0, 60)),
            "event_type": ["view", "click", "purchase",
                           "error"][rng.randint(0, 4)],
            "ts": base + np.timedelta64(int(rng.randint(0, 10**9)), "us"),
        })
    out = funnel_counts(
        rd.from_items(rows, override_num_blocks=4),
        ["view", "click", "purchase"]).iloc[0]

    # serial first-match reference
    import collections
    by_user = collections.defaultdict(list)
    for r in rows:
        if r["event_type"] in ("view", "click", "purchase"):
            by_user[r["user_id"]].append((r["ts"], r["event_type"]))
    n0 = n1 = n2 = 0
    tot = 0
    for u, evs in by_user.items():
        t0 = min((t for t, e in evs if e == "view"), default=None)
        if t0 is None:
            continue
        n0 += 1
        t1 = min((t for t, e in evs if e == "click" and t > t0),
                 default=None)
        if t1 is None:
            continue
        n1 += 1
        t2 = min((t for t, e in evs if e == "purchase" and t > t1),
                 default=None)
        if t2 is None:
            continue
        n2 += 1
        tot += int((t2 - t0) / np.timedelta64(1, "us"))
    assert out["n_users"] == len(by_user)
    assert (out["n_view"], out["n_view_click"],
            out["n_view_click_purchase"]) == (n0, n1, n2)
    assert out["sum_convert_us"] == tot


def test_retention_cohorts_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import retention_cohorts

    rng = np.random.RandomState(13)
    base = np.datetime64("2024-03-01T00:00:00", "us")
    day = np.timedelta64(86_400_000_000, "us")
    rows = [{"user_id": int(rng.randint(0, 40)),
             "ts": base + int(rng.randint(0, 20)) * day
             + np.timedelta64(int(rng.randint(0, 10**6)), "us")}
            for _ in range(1500)]
    out = retention_cohorts(
        rd.from_items(rows, override_num_blocks=4),
        max_offset=7, period_us=86_400_000_000)

    import collections
    per_user = collections.defaultdict(set)
    for r in rows:
        per_user[r["user_id"]].add(
            int(r["ts"].astype("datetime64[us]").astype(np.int64)
                // 86_400_000_000))
    exp = collections.Counter()
    for u, days in per_user.items():
        m0 = min(days)
        for d in days:
            if d - m0 <= 7:
                exp[(m0, d - m0)] += 1
    got = {(int(r.cohort_mon), int(r.off)): int(r.n_users)
           for r in out.itertuples()}
    assert got == dict(exp)


def test_snapshot_diff_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import snapshot_diff

    rng = np.random.RandomState(21)
    base = np.datetime64("2024-06-01T00:00:00", "us")
    rows = [{"k": int(rng.randint(0, 30)), "eid": i,
             "ts": base + np.timedelta64(int(rng.randint(0, 20 * 86400))
                                         * 10**6, "us"),
             "v": float(np.round(rng.uniform(-50, 50), 2))}
            for i in range(800)]
    t1 = "2024-06-08T00:00:00"
    t2 = "2024-06-15T00:00:00"
    out = snapshot_diff(rd.from_items(rows, override_num_blocks=4),
                        "k", "ts", "v", t1, t2,
                        order_cols=("eid",)).iloc[0]

    def snap(cut):
        cutd = np.datetime64(cut, "us")
        best = {}
        for r in rows:
            if r["ts"] <= cutd:
                cur = best.get(r["k"])
                if cur is None or (r["ts"], r["eid"]) > (cur[0], cur[1]):
                    best[r["k"]] = (r["ts"], r["eid"],
                                    int(np.floor(r["v"] * 100 + 0.5)))
        return {k: t[2] for k, t in best.items()}

    s1, s2 = snap(t1), snap(t2)
    added = sum(1 for k in s2 if k not in s1)
    changed = sum(1 for k in s2 if k in s1 and s1[k] != s2[k])
    unchanged = sum(1 for k in s2 if k in s1 and s1[k] == s2[k])
    assert (out["n_keys_t1"], out["n_keys_t2"]) == (len(s1), len(s2))
    assert (out["n_added"], out["n_changed"],
            out["n_unchanged"]) == (added, changed, unchanged)
