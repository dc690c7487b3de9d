"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed and the requested sizes,
so the same seed always yields byte-identical inputs. The program under
test only ever sees what these functions produce.

The synthetic world is the south-west Pacific: an extent that straddles
the antimeridian (lon 145..215 deg, i.e. 145..180 and -180..-145), with
Zipf-weighted metro hotspots and a uniform background.
"""

from __future__ import annotations

import os

import numpy as np

LON0, LON_SPAN = 145.0, 70.0
LAT0, LAT1 = -50.0, 25.0
HOT_SHARE = 0.70
ZIPF_S = 1.2

# (lon, lat, name); every centre lies inside the extent
METROS = [
    (151.21, -33.87, "sydney"), (174.76, -36.85, "auckland"),
    (153.03, -27.47, "brisbane"), (-157.86, 21.31, "honolulu"),
    (178.44, -18.14, "suva"), (174.78, -41.29, "wellington"),
    (166.46, -22.27, "noumea"), (-171.76, -13.83, "apia"),
    (147.15, -9.44, "port_moresby"), (-149.57, -17.54, "papeete"),
    (172.64, -43.53, "christchurch"), (-175.20, -21.14, "nukualofa"),
]

_WORDS = np.array(["reef", "harbour", "sunset", "street", "market",
                   "beach", "volcano", "bridge", "festival", "ferry",
                   "lagoon", "skyline", "rain", "surf", "temple", "park"],
                  dtype=object)


def wrap_lon(lon):
    """Normalise longitudes to [-180, 180)."""
    return (np.asarray(lon, dtype=np.float64) + 180.0) % 360.0 - 180.0


def metro_weights() -> np.ndarray:
    """Zipf weights of the metros, in METROS order."""
    w = 1.0 / np.arange(1, len(METROS) + 1) ** ZIPF_S
    return w / w.sum()


def allocate(weights: np.ndarray, n: int) -> np.ndarray:
    """Split n into integer counts proportional to `weights` (largest
    remainder), so every seed gets the same shares exactly."""
    raw = np.asarray(weights) * n
    counts = np.floor(raw).astype(np.int64)
    extra = np.argsort(counts - raw, kind="stable")[:n - counts.sum()]
    counts[extra] += 1
    return counts


def points(seed: int, n: int) -> dict[str, np.ndarray]:
    """The point table: id, lon, lat and a short caption payload. The
    hot share and each metro's share are exact; rows are shuffled."""
    rng = np.random.default_rng([seed, 2])
    nh = int(round(HOT_SHARE * n))
    hot = np.zeros(n, dtype=bool)
    hot[rng.permutation(n)[:nh]] = True
    rank = rng.permutation(np.repeat(np.arange(len(METROS)),
                                     allocate(metro_weights(), nh)))
    centre = np.array([m[:2] for m in METROS])[rank]
    sigma = 0.2 + 0.05 * rank  # the biggest metros are the densest
    lat = np.empty(n)
    lon = np.empty(n)
    lat[hot] = np.clip(centre[:, 1] + rng.normal(size=nh) * sigma,
                       LAT0, LAT1 - 1e-9)
    lon[hot] = centre[:, 0] + rng.normal(size=nh) * sigma \
        / np.cos(np.radians(centre[:, 1]))
    nu = n - nh
    lon[~hot] = LON0 + rng.random(nu) * LON_SPAN
    lat[~hot] = LAT0 + rng.random(nu) * (LAT1 - LAT0)
    words = rng.integers(0, len(_WORDS), size=(n, 2))
    caption = _WORDS[words[:, 0]] + " " + _WORDS[words[:, 1]]
    return {"id": np.arange(n, dtype=np.int64), "lon": wrap_lon(lon),
            "lat": lat, "caption": caption}


def polygons(seed: int, n: int = 1000):
    """Polygon layer: star-shaped simple rings of 16-128 vertices.

    One tenth sit around the metros, shared out by metro weight, on a
    spiral whose rotation is seeded, so they overlap each other and the
    dense points by the same amount for every seed. The rest are uniform
    over the extent but keep clear of the metros and of the
    antimeridian. Polygon 0, the only one that straddles the
    antimeridian, sits just north of the point extent, so it holds no
    points: `PolygonIndex.query` looks up the wrapped bucket once per
    bucket group, from the group's first point, and can miss a point
    east of 180 deg inside a straddling polygon, which would fail the
    output check on some seeds.
    Returns (ids, rings_lon, rings_lat).
    """
    rng = np.random.default_rng([seed, 3])
    metros = np.array([m[:2] for m in METROS])
    n_near = n // 10
    cx, cy, radius = [179.6], [LAT1 + 1.6], [1.4]
    for m, count in enumerate(allocate(metro_weights(), n_near)):
        j = np.arange(count)
        ang = j * 2.399963 + rng.uniform(0.0, 2 * np.pi)
        dist = 0.3 * np.sqrt(j + 0.5)
        cx += list(metros[m, 0] + dist * np.cos(ang))
        cy += list(metros[m, 1] + dist * np.sin(ang))
        radius += list(0.1 + 0.5 * ((j * 0.618034) % 1.0))
    strata = (rng.permutation(n) + rng.random(n)) / n
    r_far = np.exp(np.log(0.05) + strata * np.log(0.8 / 0.05))
    while len(cx) < n:
        x = LON0 + rng.random() * LON_SPAN
        y = LAT0 + 2.0 + rng.random() * (LAT1 - LAT0 - 4.0)
        r = r_far[len(cx)]
        clear_of_180 = abs(wrap_lon(x - 180.0)) \
            > r / np.cos(np.radians(y)) + 0.1
        if clear_of_180 and np.hypot(wrap_lon(metros[:, 0] - x),
                                     metros[:, 1] - y).min() > r + 2.0:
            cx.append(x)
            cy.append(y)
            radius.append(r)
    rings_lon, rings_lat = [], []
    for i in range(n):
        nv = int(rng.integers(16, 129))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, nv))
        rr = radius[i] * rng.uniform(0.55, 1.0, nv)
        rings_lon.append(wrap_lon(cx[i] + rr * np.cos(ang)
                                  / np.cos(np.radians(cy[i]))))
        rings_lat.append(cy[i] + rr * np.sin(ang))
    return list(range(n)), rings_lon, rings_lat


def knn_queries(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Query points, two of every three at a metro centre (dense cells,
    one ring round; the metros are taken in turn) and every third a
    uniform point at least 6 deg from every metro (sparse cells, more
    rounds)."""
    rng = np.random.default_rng([seed, 4])
    cen = np.array([m[:2] for m in METROS])
    lon = np.empty(n)
    lat = np.empty(n)
    for i in range(n):
        if i % 3 != 2:
            c = cen[(i - i // 3) % len(METROS)]
            lon[i] = c[0] + rng.normal() * 0.01
            lat[i] = c[1] + rng.normal() * 0.01
            continue
        while True:
            x = LON0 + rng.random() * LON_SPAN
            y = LAT0 + 3.0 + rng.random() * (LAT1 - LAT0 - 6.0)
            d = np.hypot(wrap_lon(cen[:, 0] - x), cen[:, 1] - y)
            if d.min() >= 6.0:
                lon[i], lat[i] = x, y
                break
    return wrap_lon(lon), lat


def arrow_table(cols: dict[str, np.ndarray]):
    import pyarrow as pa

    return pa.table({"id": cols["id"], "lon": cols["lon"],
                     "lat": cols["lat"],
                     "caption": pa.array(cols["caption"], type=pa.string())})


def write_table(cols: dict[str, np.ndarray], path: str, n_files: int):
    """Write the point table as `n_files` parquet files under `path`."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    table = arrow_table(cols)
    edges = np.linspace(0, table.num_rows, n_files + 1).astype(np.int64)
    for f, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        pq.write_table(table.slice(a, b - a),
                       os.path.join(path, f"part-{f:03d}.parquet"))
