"""Triangle counting: brute-force parity and pair-expansion kernel."""

import numpy as np
import pandas as pd

from proj_ray import dsutil
from proj_ray.functions.graph import _pair_expand


def test_pair_expand_matches_loops():
    src = np.array([1, 1, 1, 2, 3, 3], dtype=np.int64)
    dst = np.array([10, 20, 30, 40, 50, 60], dtype=np.int64)
    a, b = _pair_expand(src, dst)
    got = sorted(zip(a.tolist(), b.tolist()))
    assert got == [(10, 20), (10, 30), (20, 30), (50, 60)]


def test_pair_expand_empty_and_singletons():
    a, b = _pair_expand(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(a) == 0
    a, b = _pair_expand(np.array([5], np.int64), np.array([9], np.int64))
    assert len(a) == 0


def _brute(u, v, n):
    A = np.zeros((n, n), dtype=np.int64)
    keep = u != v
    A[u[keep], v[keep]] = 1
    A[v[keep], u[keep]] = 1
    return (int((A.sum(0) > 0).sum()), int(A.sum() // 2),
            int(np.trace(A @ A @ A) // 6))


def test_triangle_count_matches_brute(ray_session, monkeypatch):
    import ray.data as rd

    from proj_ray.functions.graph import triangle_count

    for seed, n, m in ((0, 60, 400), (1, 30, 200), (2, 100, 150)):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, m).astype(np.int64)
        v = rng.integers(0, n, m).astype(np.int64)
        df = pd.DataFrame({"u": u, "v": v})
        nn, ne, nt = _brute(u, v, n)
        # both closing paths: broadcast (default) and co-partition
        # exchange (forced with dsutil.BROADCAST_ROWS = 0)
        for cap in (5_000_000, 0):
            monkeypatch.setattr(dsutil, "BROADCAST_ROWS", cap)
            out = triangle_count(
                rd.from_pandas(df).repartition(4)).iloc[0]
            assert (out["n_nodes"], out["n_edges"],
                    out["n_triangles"]) == (nn, ne, nt)


def test_triangle_count_planted_clique(ray_session):
    import ray.data as rd

    from proj_ray.functions.graph import triangle_count

    # K5 has C(5,3) = 10 triangles; plus a disjoint path (0 triangles)
    iu, iv = np.triu_indices(5, k=1)
    u = np.r_[iu, [100, 101]].astype(np.int64)
    v = np.r_[iv, [101, 102]].astype(np.int64)
    # duplicate + self-loop noise must not change the count
    u = np.r_[u, u[:3], [7]]
    v = np.r_[v, v[:3], [7]]
    out = triangle_count(
        rd.from_pandas(pd.DataFrame({"u": u, "v": v}))).iloc[0]
    assert out["n_triangles"] == 10
    assert out["n_edges"] == 12
    assert out["n_nodes"] == 8
