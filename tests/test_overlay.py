"""Vector overlay joins (proj_ray/functions/overlay.py): the
rectangle intersection-area join's broadcast and PBSM-partitioned
paths must agree with a numpy brute-force cross join (exact integer
areas, strict-overlap semantics, reference-point dedup emits every
pair exactly once), and the segment-crossing join must match a
brute-force orientation-test oracle including collinear/touching
exclusions."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from proj_ray import dsutil
from proj_ray.functions.overlay import (rect_overlay_join,
                                        segment_crossings)

# the `dsutil.BROADCAST_ROWS` value that sends the right side of
# rect_overlay_join down each path
ROUTE_CAP = {"broadcast": 10**9, "partitioned": -1}


def _overlay(monkeypatch, lp, rp, path):
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", ROUTE_CAP[path])
    return rect_overlay_join(rd.from_pandas(lp), rd.from_pandas(rp),
                             "lid", "rid")


def _mk_rects(rng, n, maxext, idc):
    x0 = rng.integers(-180000, 170000, n) / 1000.0
    y0 = rng.integers(-85000, 80000, n) / 1000.0
    w = rng.integers(1, maxext, n) / 1000.0
    h = rng.integers(1, maxext, n) / 1000.0
    return pd.DataFrame({idc: np.arange(n, dtype=np.int64),
                         "x0": x0, "y0": y0,
                         "x1": x0 + w, "y1": y0 + h})


def _brute_pairs(lp, rp):
    lx0 = np.rint(lp["x0"].to_numpy() * 1000).astype(np.int64)
    ly0 = np.rint(lp["y0"].to_numpy() * 1000).astype(np.int64)
    lx1 = np.rint(lp["x1"].to_numpy() * 1000).astype(np.int64)
    ly1 = np.rint(lp["y1"].to_numpy() * 1000).astype(np.int64)
    rx0 = np.rint(rp["x0"].to_numpy() * 1000).astype(np.int64)
    ry0 = np.rint(rp["y0"].to_numpy() * 1000).astype(np.int64)
    rx1 = np.rint(rp["x1"].to_numpy() * 1000).astype(np.int64)
    ry1 = np.rint(rp["y1"].to_numpy() * 1000).astype(np.int64)
    ix0 = np.maximum(lx0[:, None], rx0[None, :])
    iy0 = np.maximum(ly0[:, None], ry0[None, :])
    ix1 = np.minimum(lx1[:, None], rx1[None, :])
    iy1 = np.minimum(ly1[:, None], ry1[None, :])
    hit = (ix1 > ix0) & (iy1 > iy0)
    li, ri = np.nonzero(hit)
    ar = (ix1[li, ri] - ix0[li, ri]) * (iy1[li, ri] - iy0[li, ri])
    return sorted(zip(li.tolist(), ri.tolist(), ar.tolist()))


@pytest.fixture(scope="module")
def rect_sides(ray_session):
    rng = np.random.default_rng(11)
    lp = _mk_rects(rng, 600, 9000, "lid")
    rp = _mk_rects(rng, 200, 15000, "rid")
    return lp, rp


def _collect(ds, lidc, ridc):
    df = ds.to_pandas()
    return sorted(zip(df[lidc].tolist(), df[ridc].tolist(),
                      df["area"].tolist()))


def test_overlay_broadcast_matches_brute(ray_session, rect_sides,
                                         monkeypatch):
    lp, rp = rect_sides
    got = _collect(_overlay(monkeypatch, lp, rp, "broadcast"),
                   "lid", "rid")
    assert got == _brute_pairs(lp, rp)


def test_overlay_partitioned_matches_brute(ray_session, rect_sides,
                                           monkeypatch):
    """The PBSM path (flat-map to cells + one co-partitioned
    all-to-all + reference-point dedup) emits the identical pair set —
    rects spanning multiple 4-deg cells are claimed exactly once."""
    lp, rp = rect_sides
    got = _collect(_overlay(monkeypatch, lp, rp, "partitioned"),
                   "lid", "rid")
    assert got == _brute_pairs(lp, rp)


def test_overlay_multi_cell_spanners(ray_session, monkeypatch):
    """Rectangles far wider than the grid cell overlap in MANY cells;
    both paths must still emit each pair once with the full area."""
    lp = pd.DataFrame({"lid": np.arange(3, dtype=np.int64),
                       "x0": [-30.0, -10.0, 5.0],
                       "y0": [-20.0, -15.0, -2.0],
                       "x1": [25.0, 40.0, 6.0],
                       "y1": [18.0, 30.0, 50.0]})
    rp = pd.DataFrame({"rid": np.arange(2, dtype=np.int64),
                       "x0": [-25.0, 4.0], "y0": [-18.0, -1.0],
                       "x1": [35.0, 7.0], "y1": [25.0, 45.0]})
    want = _brute_pairs(lp, rp)
    for force in ("broadcast", "partitioned"):
        got = _collect(_overlay(monkeypatch, lp, rp, force),
                       "lid", "rid")
        assert got == want, force


def _brute_crossings(df, fences):
    fx0, fy0, fx1, fy1 = (np.rint(np.asarray(a) * 1000).astype(np.int64)
                          for a in fences)
    out = {}
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="stable")
        x = np.rint(g["lon"].to_numpy() * 1000).astype(np.int64)
        y = np.rint(g["lat"].to_numpy() * 1000).astype(np.int64)
        for i in range(len(g) - 1):
            ax, ay, bx, by = x[i], y[i], x[i + 1], y[i + 1]
            for f in range(len(fx0)):
                cx, cy, dx, dy = fx0[f], fy0[f], fx1[f], fy1[f]
                d1 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
                d2 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
                d3 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                d4 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
                if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
                        and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
                    out[(uid, f)] = out.get((uid, f), 0) + 1
    return dict(sorted(out.items()))


def test_segment_crossings_matches_brute(ray_session):
    rng = np.random.default_rng(5)
    n = 800
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 12, n),
        "ts": rng.integers(0, 10_000, n),
        "lon": rng.integers(-180000, 180001, n) / 1000.0,
        "lat": rng.integers(-85000, 85001, n) / 1000.0,
    })
    fences = (np.array([-120.0, 0.0, 60.5, -30.25]),
              np.array([-60.0, -80.0, 10.0, 70.0]),
              np.array([40.0, 20.0, 61.0, 150.75]),
              np.array([55.0, 80.0, -70.0, -60.0]))
    got = segment_crossings(rd.from_pandas(df), "user_id",
                            ["ts", "event_id"], "lon", "lat",
                            fences).to_pandas()
    got_d = dict(sorted(
        ((int(u), int(f)), int(c)) for u, f, c in
        zip(got["user_id"], got["fence"], got["n_cross"])))
    assert got_d == _brute_crossings(df, fences)


def test_segment_crossings_touch_excluded(ray_session):
    """An endpoint ON the fence line (collinear d == 0) is not a
    proper crossing; a segment strictly crossing is."""
    df = pd.DataFrame({
        "event_id": np.array([0, 1, 2, 3], dtype=np.int64),
        "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
        "ts": np.array([0, 1, 0, 1], dtype=np.int64),
        # user 1 leg: (-1,-1)->(1,1) strictly crosses x-axis fence;
        # user 2 leg: (-1,0)->(1,0) collinear with it -> excluded
        "lon": [-1.0, 1.0, -1.0, 1.0],
        "lat": [-1.0, 1.0, 0.0, 0.0],
    })
    fences = (np.array([-10.0]), np.array([0.0]),
              np.array([10.0]), np.array([0.0]))
    got = segment_crossings(rd.from_pandas(df), "user_id",
                            ["ts", "event_id"], "lon", "lat",
                            fences).to_pandas()
    assert len(got) == 1
    assert int(got["user_id"].iloc[0]) == 1
    assert int(got["n_cross"].iloc[0]) == 1


def test_overlay_degenerate_rects_dropped(ray_session, monkeypatch):
    """Inverted, zero-width, and non-finite rectangles never match and
    must not break either path."""
    lp = pd.DataFrame({"lid": np.arange(4, dtype=np.int64),
                       "x0": [0.0, 5.0, np.nan, 2.0],
                       "y0": [0.0, 5.0, 0.0, 2.0],
                       "x1": [3.0, 4.0, 1.0, 2.0],   # 1: inverted, 3: zero
                       "y1": [3.0, 6.0, 1.0, 5.0]})
    rp = pd.DataFrame({"rid": np.array([0], dtype=np.int64),
                       "x0": [1.0], "y0": [1.0], "x1": [6.0],
                       "y1": [6.0]})
    for force in ("broadcast", "partitioned"):
        got = _overlay(monkeypatch, lp, rp, force).to_pandas()
        assert sorted(got["lid"].tolist()) == [0]
