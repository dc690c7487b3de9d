import numpy as np

from proj_ray.join import PolygonIndex


def _scalar_pip(px, py, xs, ys):
    """Independent scalar even-odd oracle."""
    inside = False
    n = len(xs)
    j = n - 1
    for i in range(n):
        if (ys[i] > py) != (ys[j] > py):
            xint = xs[j] + (py - ys[i]) * (xs[j] - xs[i]) / (ys[j] - ys[i]) \
                if False else \
                (xs[j] - xs[i]) * (py - ys[i]) / (ys[j] - ys[i]) + xs[i]
            if px < xint:
                inside = not inside
        j = i
    return inside


def test_index_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    polys = []
    for j in range(40):
        cx, cy = rng.uniform(-150, 150), rng.uniform(-60, 60)
        n = rng.integers(3, 9)
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        r = rng.uniform(2, 12, n)
        polys.append((f"poly{j}", cx + r * np.cos(ang),
                      cy + r * np.sin(ang)))
    idx = PolygonIndex([p[0] for p in polys],
                       [p[1] for p in polys],
                       [p[2] for p in polys])
    lon = rng.uniform(-180, 180, 2000)
    lat = rng.uniform(-85, 85, 2000)
    pts, pis = idx.query(lon, lat)
    got = set(zip(pts.tolist(), pis.tolist()))
    exp = set()
    for j, (_, xs, ys) in enumerate(polys):
        xs_c = np.append(xs, xs[0])
        ys_c = np.append(ys, ys[0])
        for i in range(len(lon)):
            if _scalar_pip(lon[i], lat[i], xs_c, ys_c):
                exp.add((i, j))
    assert got == exp


def test_concave_polygon():
    # C-shape: point inside the notch must NOT match
    xs = np.array([0, 10, 10, 2, 2, 10, 10, 0, 0])
    ys = np.array([0, 0, 3, 3, 7, 7, 10, 10, 0])
    idx = PolygonIndex(["c"], [xs], [ys])
    pts, _ = idx.query(np.array([5.0, 1.0, 5.0]),
                       np.array([5.0, 5.0, 1.0]))
    assert set(pts.tolist()) == {1, 2}  # notch point (5,5) excluded


def test_antimeridian_polygon():
    xs = np.array([170, -170, -170, 170])
    ys = np.array([-10, -10, 10, 10])
    idx = PolygonIndex(["am"], [xs], [ys])
    pts, _ = idx.query(np.array([175.0, -175.0, 0.0]),
                       np.array([0.0, 0.0, 0.0]))
    assert set(pts.tolist()) == {0, 1}


def test_spatial_join_dataset(ray_session):
    import ray.data as rd

    from proj_ray.stages import spatial_join

    rows = [{"pid": i, "lon": float(i), "lat": 0.5} for i in range(20)]
    ds = rd.from_items(rows)
    # one square covering lon 4.5..8.5 (off-lattice bounds: boundary
    # semantics of even-odd ray casting are not exercised)
    idx = PolygonIndex(["sq"], [np.array([4.5, 8.5, 8.5, 4.5])],
                       [np.array([0, 0, 1, 1])])
    inner = spatial_join(ds, idx, how="inner").to_pandas()
    assert sorted(inner["pid"]) == [5, 6, 7, 8]
    semi = spatial_join(ds, idx, how="semi").to_pandas()
    assert sorted(semi["pid"]) == [5, 6, 7, 8]
    anti = spatial_join(ds, idx, how="anti").to_pandas()
    assert len(anti) == 16


def test_pip_nonconvex_star_and_antimeridian():
    """Even-odd ray casting on the q68 polygon layer: a point in a
    star's concave notch (inside the bbox AND the convex hull) is
    OUTSIDE; star tips are inside; the antimeridian star accepts
    points on both sides of +-180."""
    import numpy as np

    import __ray_entry__ as E
    from proj_ray.join import PolygonIndex

    polys = E._q68_polys()
    idx = PolygonIndex(
        [p[0] for p in polys],
        [np.array([v[0] for v in pts]) for _, pts in polys],
        [np.array([v[1] for v in pts]) for _, pts in polys])

    import math
    cx, cy, rot = -96.3, 38.7, 11.0
    # between two tips at radius 10 (inner radius is 5): concave notch
    a_mid = math.radians(rot + 18.0)
    notch = (cx + 10.0 * math.cos(a_mid), cy + 10.0 * math.sin(a_mid))
    a_tip = math.radians(rot)
    tip_in = (cx + 11.0 * math.cos(a_tip), cy + 11.0 * math.sin(a_tip))
    lon = np.array([notch[0], tip_in[0], cx, 179.9, -179.9, 178.6])
    lat = np.array([notch[1], tip_in[1], cy, -10.3, -10.2, -10.3])
    pts_i, poly_i = idx.query(lon, lat)
    hits = dict(zip(pts_i.tolist(), poly_i.tolist()))
    assert 0 not in hits          # concave notch excluded
    assert hits.get(1) == 0       # near-tip point inside star 0
    assert hits.get(2) == 0       # center inside
    assert hits.get(3) == 4       # east of the antimeridian
    assert hits.get(4) == 4       # west of the antimeridian (wrapped)
    assert hits.get(5) == 4       # center of the wrapped star


def _wrap_shift(xs, px):
    """The engine's antimeridian convention for the scalar oracle: a
    ring wider than 180 deg has its negative lons (and the probed
    point's) shifted up by 360."""
    if xs.max() - xs.min() > 180.0:
        return np.where(xs < 0, xs + 360.0, xs), (px + 360.0 if px < 0
                                                  else px)
    return xs, px


def _scalar_pairs(polys, lon, lat):
    exp = set()
    for j, (xs, ys) in enumerate(polys):
        xs_c = np.append(xs, xs[0])
        ys_c = np.append(ys, ys[0])
        for i in range(len(lon)):
            if not (np.isfinite(lon[i]) and np.isfinite(lat[i])):
                continue
            wx, px = _wrap_shift(xs_c, lon[i])
            if _scalar_pip(px, lat[i], wx, ys_c):
                exp.add((i, j))
    return exp


def _star(rng, cx, cy, n, r_lo, r_hi):
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    r = rng.uniform(r_lo, r_hi, n)
    xs = cx + r * np.cos(ang)
    return ((xs + 180.0) % 360.0) - 180.0, cy + r * np.sin(ang)


def test_antimeridian_points_east_of_180_in_every_bucket():
    """Straddling rings at a bucket size that does not divide 360: the
    shifted-grid bucket of a point west of 0 must be looked up per
    point, not once per bucket group, or points in the neighbouring
    shifted bucket are missed."""
    rng = np.random.default_rng(11)
    polys = [_star(rng, 180.0 + rng.uniform(-2, 2), rng.uniform(-60, 60),
                   int(rng.integers(5, 12)), 1.5, 3.7) for _ in range(200)]
    idx = PolygonIndex(list(range(len(polys))), [p[0] for p in polys],
                       [p[1] for p in polys])
    assert idx.wrapped.sum() > 150
    assert (360.0 / idx.res) % 1.0 != 0.0
    lon = np.concatenate([rng.uniform(176.0, 180.0, 1500),
                          rng.uniform(-180.0, -176.0, 1500)])
    lat = rng.uniform(-64, 64, len(lon))
    pts, pis = idx.query(lon, lat)
    got = set(zip(pts.tolist(), pis.tolist()))
    exp = _scalar_pairs(polys, lon, lat)
    assert any(lon[i] < 0 for i, _ in exp)
    assert got == exp


def test_query_property_vs_scalar_oracle():
    """Random concave, wrapped, one-band and many-band rings with
    horizontal edges, probed at random points, at every vertex
    y-value, on band boundaries, and with NaN/inf coordinates."""
    rng = np.random.default_rng(5)
    polys = []
    for _ in range(30):  # concave stars, 8-40 vertices
        polys.append(_star(rng, rng.uniform(-40, 40), rng.uniform(-40, 40),
                           int(rng.integers(8, 41)), 1.0, 9.0))
    for _ in range(6):  # straddling the antimeridian
        polys.append(_star(rng, 180.0 + rng.uniform(-3, 3),
                           rng.uniform(-40, 40), int(rng.integers(8, 41)),
                           1.0, 6.0))
    # one band: a triangle; many bands: a 400-vertex star
    polys.append((np.array([-5.0, 5.0, 0.0]), np.array([-3.0, -3.0, 4.0])))
    polys.append(_star(rng, 10.0, 10.0, 400, 3.0, 12.0))
    # staircases: every other edge horizontal, vertices on shared y's
    for x0, y0 in [(-30.0, 20.0), (170.0, -20.0)]:
        k = np.repeat(np.arange(1.0, 6.0), 2)
        polys.append((np.concatenate([[x0], x0 + k, [x0]]),
                      np.concatenate([[y0], y0 + k - [1.0, 0.0] * 5,
                                      [y0 + 5.0]])))
    idx = PolygonIndex(list(range(len(polys))), [p[0] for p in polys],
                       [p[1] for p in polys])
    assert idx.n_bands.min() == 1 and idx.n_bands.max() >= 50
    # probes at every vertex y-value, near the vertex; on every band
    # boundary, across the ring's bbox; random; NaN and inf
    xs = np.concatenate([p[0] for p in polys])
    ys = np.concatenate([p[1] for p in polys])
    band_lon, band_lat = [], []
    for j in range(len(polys)):
        edges = np.arange(idx.n_bands[j] + 1) / idx.band_scale[j] \
            if idx.band_scale[j] else np.zeros(1)
        band_lat.append(idx.y0[j] + edges)
        band_lon.append(rng.uniform(idx.x0[j], idx.x1[j], len(edges)))
    rand_lon = np.where(rng.random(3000) < 0.2,
                        rng.uniform(-180, -170, 3000),
                        rng.uniform(-50, 180, 3000))
    lon = np.concatenate([xs + rng.uniform(-3, 3, len(xs)),
                          *band_lon, rand_lon])
    lon = np.append((lon + 180.0) % 360.0 - 180.0,
                    [0.0, np.nan, 1.0, 2.0, np.inf, -np.inf])
    lat = np.concatenate([ys, *band_lat, rng.uniform(-55, 55, 3000),
                          [np.nan, 0.0, np.inf, -np.inf, 1.0, np.nan]])
    pts, pis = idx.query(lon, lat)
    assert np.all(np.diff(pts * len(polys) + pis) > 0)  # sorted, unique
    assert set(zip(pts.tolist(), pis.tolist())) == \
        _scalar_pairs(polys, lon, lat)


def test_query_matches_brute_force_oracle_bit_for_bit():
    """On-edge and on-vertex points, where the rounding of the crossing
    expression decides: the indexed query and the brute-force
    `pip_oracle` must agree exactly."""
    from proj_ray.join import pip_oracle

    rng = np.random.default_rng(3)
    polys = [_star(rng, rng.uniform(-20, 20), rng.uniform(-20, 20),
                   int(rng.integers(6, 60)), 1.0, 8.0) for _ in range(20)]
    polys.append(_star(rng, 179.0, 0.0, 30, 1.0, 4.0))
    idx = PolygonIndex(list(range(len(polys))), [p[0] for p in polys],
                       [p[1] for p in polys])
    xs = np.concatenate([p[0] for p in polys])
    ys = np.concatenate([p[1] for p in polys])
    t = rng.random(len(xs))
    lon = np.concatenate([xs, xs + t * (np.roll(xs, -1) - xs),
                          rng.uniform(-30, 30, 2000)])
    lat = np.concatenate([ys, ys + t * (np.roll(ys, -1) - ys),
                          rng.uniform(-30, 30, 2000)])
    pts, pis = idx.query(lon, lat)
    for j, (rx, ry) in enumerate(polys):
        assert np.array_equal(np.flatnonzero(pip_oracle(lon, lat, rx, ry)),
                              pts[pis == j])


def test_spatial_join_modes_on_multi_block_input(ray_session):
    """All four join modes over several blocks, some matching nothing:
    every block keeps a typed poly_id, inner keeps input row order
    within a block, and the planned join is a task (not actor-pool)
    operator fused with the map before it."""
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data._internal.compute import ActorPoolStrategy

    from proj_ray.stages import spatial_join

    # two overlapping squares on lon 0..10; blocks 2 and 3 lie east of
    # them and match nothing
    idx = PolygonIndex(["a", "b"],
                       [np.array([0.5, 6.5, 6.5, 0.5]),
                        np.array([3.5, 9.5, 9.5, 3.5])],
                       [np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])])
    frames = [pd.DataFrame({"pid": np.arange(b * 12, b * 12 + 12),
                            "lon": np.arange(12.0) + 20.0 * (b >= 2),
                            "lat": np.full(12, 0.5)}) for b in range(4)]
    src = rd.from_pandas(frames).map_batches(lambda b: b,
                                             batch_format="pandas")
    inside = {x: [n for n, (x0, x1) in
                  enumerate([(0.5, 6.5), (3.5, 9.5)]) if x0 < x < x1]
              for x in range(12)}

    def blocks(how):
        ds = spatial_join(src, idx, how=how)
        dag = ds._logical_plan.dag
        while dag.input_dependencies:
            assert not isinstance(getattr(dag, "_compute", None),
                                  ActorPoolStrategy)
            dag = dag.input_dependencies[0]
        ds = ds.materialize()
        assert "MapBatches(<lambda>)->MapBatches(PIPJoiner)" in ds.stats()
        return ray.get(ds.to_arrow_refs())

    inner = blocks("inner")
    assert all(t.schema.field("poly_id").type == pa.string() for t in inner)
    got = pa.concat_tables(inner).to_pandas()
    exp = [(p, "ab"[k]) for f in frames for p, x in zip(f["pid"], f["lon"])
           if x < 12 for k in inside[int(x)]]
    assert sorted(zip(got["pid"], got["poly_id"])) == exp
    for t in inner:  # rows stay in input order, then polygon order
        seq = list(zip(t["pid"].to_pylist(), t["poly_id"].to_pylist()))
        assert seq == sorted(seq)

    left = blocks("left")
    assert all(t.schema.field("poly_id").type == pa.string() for t in left)
    got = pa.concat_tables(left).to_pandas().sort_values("pid")
    assert len(got) == 48
    exp_left = {p: ("ab"[inside[int(x)][0]] if x < 12 and inside[int(x)]
                    else None)
                for f in frames for p, x in zip(f["pid"], f["lon"])}
    assert dict(zip(got["pid"], got["poly_id"])) == exp_left

    matched = {p for p, _ in exp}
    semi = pa.concat_tables(blocks("semi")).to_pandas()
    assert sorted(semi["pid"]) == sorted(matched)
    anti = pa.concat_tables(blocks("anti")).to_pandas()
    assert sorted(anti["pid"]) == sorted(set(range(48)) - matched)
