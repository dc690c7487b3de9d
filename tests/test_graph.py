"""Connected components: random-graph parity vs union-find,
including isolated self-loop nodes and long-ish chains."""
import numpy as np
import pandas as pd


def _union_find_labels(a, b):
    nodes = sorted(set(map(int, a)) | set(map(int, b)))
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    comp = {}
    for v in nodes:
        comp.setdefault(find(v), []).append(v)
    out = {}
    for vs in comp.values():
        mn = min(vs)
        for v in vs:
            out[v] = mn
    return out


def test_connected_components_random_graph(ray_session):
    import ray.data as rd

    from proj_ray.functions.graph import connected_components

    rng = np.random.default_rng(3)
    n, m = 400, 550
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    got = connected_components(
        rd.from_pandas(pd.DataFrame({"a": a, "b": b}))).to_pandas()
    exp = _union_find_labels(a, b)
    gd = dict(zip(got["node"], got["label"]))
    assert gd == exp


def test_connected_components_chain(ray_session):
    """A single path 0-1-...-10: worst-case diameter per node count;
    label must still converge to 0 everywhere (one hop per
    iteration)."""
    import ray.data as rd

    from proj_ray.functions.graph import connected_components

    a = np.arange(10, dtype=np.int64)
    b = a + 1
    got = connected_components(
        rd.from_pandas(pd.DataFrame({"a": a, "b": b})),
        max_iters=20).to_pandas()
    assert len(got) == 11
    assert (got["label"] == 0).all()


def test_pagerank_matches_numpy_reference(ray_session):
    import ray.data as rd

    from proj_ray.functions.graph import pagerank, pagerank_numpy

    rng = np.random.RandomState(5)
    src = rng.randint(0, 80, 600)
    dst = rng.randint(0, 80, 600)
    edges = rd.from_items(
        [{"src": int(a), "dst": int(b)} for a, b in zip(src, dst)],
        override_num_blocks=4)
    out = (pagerank(edges, iters=5).to_pandas()
           .sort_values("node").reset_index(drop=True))
    nodes, r = pagerank_numpy(src, dst, iters=5)
    assert out["node"].tolist() == nodes.tolist()
    assert out["r"].tolist() == r.tolist()
    # fixed-point sanity: every rank >= teleport, total mass bounded
    assert (r >= 150_000).all()


def test_pagerank_q104_driver_vs_distributed(ray_session, monkeypatch):
    import __ray_entry__ as E
    from proj_ray import dsutil

    a = E._q104_pagerank("/root/testdata/sf0.001")
    # both fallbacks: the orders join and the distributed iteration
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", 0)
    monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", 0)
    b = E._q104_pagerank("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
