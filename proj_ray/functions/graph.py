"""Distributed connected components (min-label propagation).

The clustering step of a near-duplicate pipeline: dup PAIRS (from
MinHash/SimHash/embedding verify stages) become edges; each connected
component keeps one canonical document. Labels converge to the
component-minimum node id in O(graph diameter) iterations.

Scale shape per iteration: two `exchange.co_partition` calls
(propagate messages along edges co-partitioned with labels on the
node, then a per-node min) — never a driver-side graph. Labels (one
row per node) are materialized between iterations so iteration k+1
does not re-execute k's lineage;
that is O(nodes), bounded, and the standard iterative-dataflow trade.
Convergence is detected with a monotone aggregate: sum(label) strictly
decreases until the fixpoint, so one cheap Sum per iteration replaces
a change-count join.
"""
from __future__ import annotations

import numpy as np

from proj_ray.dsutil import merged
from proj_ray.exchange import co_partition


def connected_components(edges, max_iters: int = 30):
    """edges: Dataset with int64 columns `a`, `b` (undirected; self
    loops fine). Returns a Dataset (node, label) with label = min node
    id of the component."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def both_dirs(b: dict) -> dict:
        a = np.asarray(b["a"], dtype=np.int64)
        bb = np.asarray(b["b"], dtype=np.int64)
        return {"src": np.concatenate([a, bb]),
                "dst": np.concatenate([bb, a])}

    ed = edges.map_batches(both_dirs, batch_format="numpy",
                           batch_size=65536).materialize()

    def init_labels(b: dict) -> dict:
        n = np.unique(np.asarray(b["src"], dtype=np.int64))
        return {"node": n, "label": n}

    def min_per_node(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["label"].min()
        out["label"] = out["label"].astype(np.int64)
        return out

    labels = co_partition(ed.map_batches(init_labels, batch_format="numpy",
                                         batch_size=65536),
                          "node", min_per_node).materialize()

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        """One bucket: edges with src in bucket + labels for those
        nodes; emit (node=dst, candidate label) messages plus the
        nodes' own labels."""
        lab = g[g["dst"].isna()][["node", "label"]]
        ed_ = g[~g["dst"].isna()][["node", "dst"]].rename(
            columns={"node": "src"})
        m = ed_.merge(lab, left_on="src", right_on="node")
        return pd.concat([
            lab,
            pd.DataFrame({"node": m["dst"].to_numpy(np.int64),
                          "label": m["label"].to_numpy(np.int64)}),
        ], ignore_index=True)

    prev_sum = None
    for _ in range(max_iters):
        def lbl_rows(b: dict) -> dict:
            return {"node": np.asarray(b["node"], dtype=np.int64),
                    "dst": np.full(len(b["node"]), np.nan),
                    "label": np.asarray(b["label"], dtype=np.int64)}

        def edge_rows(b: dict) -> dict:
            return {"node": np.asarray(b["src"], dtype=np.int64),
                    "dst": np.asarray(b["dst"], dtype=np.float64),
                    "label": np.zeros(len(b["src"]), dtype=np.int64)}

        mixed = [labels.map_batches(lbl_rows, batch_format="numpy",
                                    batch_size=65536),
                 ed.map_batches(edge_rows, batch_format="numpy",
                                batch_size=65536)]
        labels = co_partition(co_partition(mixed, "node", propagate),
                              "node", min_per_node).materialize()
        cur = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if prev_sum is not None and cur == prev_sum:
            break
        prev_sum = cur
    return labels


def pagerank(edges, iters: int = 5, scale: int = 1_000_000,
             d_pct: int = 85):
    """Fixed-iteration PageRank in integer fixed-point (rank scale
    `scale`, damping d_pct/100), so a SQL oracle of chained CTEs is
    bit-exact:

        contrib(u)  = r(u) // outdeg(u)
        r'(v)       = scale*(100-d_pct)//100
                      + (d_pct * sum_{u->v} contrib(u)) // 100

    Dangling nodes contribute nothing (the standard simplification,
    mirrored in the oracle). edges: Dataset (src:int64, dst:int64),
    directed, multi-edges counted.

    Scale shape per iteration (same dataflow as connected_components):
    TWO co-partitions — ranks with edges on src to emit (dst, contrib)
    messages, then a per-node sum on dst — never a driver-side graph;
    ranks (one row per node) are materialized between iterations to
    cut lineage. Returns a Dataset (node, r)."""
    import pandas as pd

    teleport = scale * (100 - d_pct) // 100

    # outdegree, attached to each edge once (per-bucket, vectorized)
    def outdeg_join(g: pd.DataFrame) -> pd.DataFrame:
        o = g.groupby("src")["dst"].size().rename("out")
        g = g.merge(o, left_on="src", right_index=True)
        g["out"] = g["out"].astype(np.int64)
        return g

    edo = co_partition(merged(edges, ["src", "dst"]), "src",
                       outdeg_join).materialize()

    def node_rows(b: dict) -> dict:
        n = np.unique(np.concatenate(
            [np.asarray(b["src"], dtype=np.int64),
             np.asarray(b["dst"], dtype=np.int64)]))
        return {"node": n}

    def dedup_nodes(g: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(g["node"].to_numpy(np.int64))
        return pd.DataFrame({"node": n})

    nodes = co_partition(edo.map_batches(node_rows, batch_format="numpy",
                                         batch_size=65536),
                         "node", dedup_nodes).materialize()

    def init_ranks(b: dict) -> dict:
        n = np.asarray(b["node"], dtype=np.int64)
        return {"node": n, "r": np.full(len(n), scale, dtype=np.int64)}

    ranks = nodes.map_batches(init_ranks, batch_format="numpy",
                              batch_size=65536).materialize()

    def rank_msg_rows(b: dict) -> dict:
        n = np.asarray(b["node"], dtype=np.int64)
        return {"src": n, "dst": np.full(len(n), -1, dtype=np.int64),
                "out": np.zeros(len(n), dtype=np.int64),
                "r": np.asarray(b["r"], dtype=np.int64)}

    def edge_msg_rows(b: dict) -> dict:
        return {"src": np.asarray(b["src"], dtype=np.int64),
                "dst": np.asarray(b["dst"], dtype=np.int64),
                "out": np.asarray(b["out"], dtype=np.int64),
                "r": np.zeros(len(b["src"]), dtype=np.int64)}

    def contribs(g: pd.DataFrame) -> pd.DataFrame:
        """One src bucket: join this bucket's ranks onto its edges and
        emit (node=dst, c=r//out) messages."""
        lab = g[g["dst"] < 0][["src", "r"]]
        e = g[g["dst"] >= 0][["src", "dst", "out"]]
        m = e.merge(lab, on="src")
        c = (m["r"].to_numpy(np.int64)
             // np.maximum(m["out"].to_numpy(np.int64), 1))
        return pd.DataFrame({"node": m["dst"].to_numpy(np.int64), "c": c})

    def zero_msgs(df: pd.DataFrame) -> pd.DataFrame:
        # pandas in/out so the union with the map_groups (pandas-block)
        # message dataset keeps one block type
        n = df["node"].to_numpy(np.int64)
        return pd.DataFrame({"node": n,
                             "c": np.zeros(len(n), dtype=np.int64)})

    def new_ranks(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("node", as_index=False)["c"].sum()
        n = s["node"].to_numpy(np.int64)
        r = teleport + d_pct * s["c"].to_numpy(np.int64) // 100
        return pd.DataFrame({"node": n, "r": r})

    for _ in range(iters):
        msgs = co_partition(
            [ranks.map_batches(rank_msg_rows, batch_format="numpy",
                               batch_size=65536),
             edo.map_batches(edge_msg_rows, batch_format="numpy",
                             batch_size=65536)],
            "src", contribs)
        # zero-in-degree nodes keep a row via zero messages
        ranks = co_partition(
            [msgs, nodes.map_batches(zero_msgs, batch_format="pandas",
                                     batch_size=65536)],
            "node", new_ranks).materialize()

    return ranks


def pagerank_numpy(src: np.ndarray, dst: np.ndarray, iters: int = 5,
                   scale: int = 1_000_000, d_pct: int = 85):
    """Driver-side PageRank on the same integer fixed-point recurrence
    as `pagerank` (bit-identical results — pytest-enforced): the
    under-cap fast path for graphs whose EDGE LIST fits the driver,
    per the repo's cap-with-distributed-fallback convention. Returns
    (nodes, ranks) int64 arrays."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    src_i = np.searchsorted(nodes, src)
    dst_i = np.searchsorted(nodes, dst)
    outdeg = np.bincount(src_i, minlength=len(nodes)).astype(np.int64)
    teleport = scale * (100 - d_pct) // 100
    r = np.full(len(nodes), scale, dtype=np.int64)
    for _ in range(iters):
        contrib = r[src_i] // outdeg[src_i]
        sums = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(sums, dst_i, contrib)
        r = teleport + d_pct * sums // 100
    return nodes, r


def _pair_expand(sorted_src: np.ndarray, sorted_dst: np.ndarray):
    """All unordered out-neighbor pairs per src, fully vectorized
    (no per-node loop): inputs sorted by src; returns (a, b) arrays,
    one row per wedge. Element i with in-segment index t pairs with
    the t elements before it in the same segment."""
    n = len(sorted_src)
    if n == 0:
        return (np.empty(0, np.int64),) * 2
    new_seg = np.r_[True, sorted_src[1:] != sorted_src[:-1]]
    seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(n), 0))
    idx = np.arange(n) - seg_start           # in-segment index t
    i_rep = np.repeat(np.arange(n), idx)     # current element, t times
    base = np.repeat(seg_start, idx)
    j = np.arange(len(i_rep)) - np.repeat(np.cumsum(idx) - idx, idx)
    partner = base + j
    a = sorted_dst[partner]
    b = sorted_dst[i_rep]
    return np.minimum(a, b), np.maximum(a, b)


def degree_table(edges):
    """Per-node degree table (node, deg int64) of a canonical edge
    Dataset (u, v int64): per-block partial counts, then one
    co-partitioned per-node sum."""
    import pandas as pd

    def partial(b: dict) -> dict:
        n, c = np.unique(np.concatenate(
            [np.asarray(b["u"], np.int64),
             np.asarray(b["v"], np.int64)]), return_counts=True)
        return {"node": n, "deg": c.astype(np.int64)}

    def comb(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["deg"].sum()
        out["deg"] = out["deg"].astype(np.int64)
        return out

    return co_partition(edges.map_batches(partial, batch_format="numpy",
                                          batch_size=65536),
                        "node", comb)


def attach_degrees(edges, deg):
    """`edges` (u, v int64) with the degree of each endpoint attached as
    `du` and `dv`, from a degree table (node, deg int64): two
    co-partitions on the node, one per endpoint, materialized. Both
    sides ship int rows only."""
    import pandas as pd

    def attach(cur, col: str, out: str, ecols: list):
        def tag_e(b: dict) -> pd.DataFrame:
            df = pd.DataFrame({k: np.asarray(b[k], np.int64)
                               for k in ecols})
            df["_side"] = np.int8(1)
            df["node"] = df[col]
            df["deg"] = np.int64(0)
            return df

        def tag_d(b: dict) -> pd.DataFrame:
            # same columns, same order, so the union schemas line up
            n = len(np.asarray(b["node"]))
            df = pd.DataFrame({k: np.zeros(n, dtype=np.int64)
                               for k in ecols})
            df["_side"] = np.int8(0)
            df["node"] = np.asarray(b["node"], np.int64)
            df["deg"] = np.asarray(b["deg"], np.int64)
            return df

        def join(g: pd.DataFrame) -> pd.DataFrame:
            d = g[g["_side"] == 0][["node", "deg"]]
            e = g[g["_side"] == 1].drop(columns=["deg", "_side"])
            m = e.merge(d, on="node").drop(columns=["node"])
            return m.rename(columns={"deg": out})

        return co_partition(
            [cur.map_batches(tag_e, batch_format="numpy", batch_size=65536),
             deg.map_batches(tag_d, batch_format="numpy", batch_size=65536)],
            "node", join).materialize()

    return attach(attach(edges, "u", "du", ["u", "v"]),
                  "v", "dv", ["u", "v", "du"])


def triangle_count(edges):
    """Exact distributed triangle count (Suri & Vassilvitskii,
    WWW'11 node-iterator++): orient every edge from its lower-
    (degree, id) endpoint so out-degrees are O(sqrt(m)), generate
    wedges per source, and close them against the canonical edge set.
    edges: Dataset (u:int64, v:int64), any orientation, dups/
    self-loops dropped here.

    Returns one-row pandas (n_nodes, n_edges, n_triangles).

    Closing paths (parity-tested): at most `dsutil.BROADCAST_ROWS`
    edges (`dsutil.driver_table` decides; and 32-bit ids) the
    canonical edge set broadcasts ONCE as a sorted packed-key array
    and wedges close inside the generating task — the O(sum C(out,2))
    wedge volume never crosses the wire. Above the cap, wedges compact
    per (pair) within each source bucket and close in one
    co-partition on the pair. Exchanges: edge dedup and the
    per-source wedge bucket on both paths; above the cap also the
    degree sum, the degree attach x2 and the wedge close — each ships
    int rows only."""
    import pandas as pd

    from proj_ray import dsutil

    def canon(b: dict) -> dict:
        u = np.asarray(b["u"], dtype=np.int64)
        v = np.asarray(b["v"], dtype=np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        return {"u": np.minimum(u, v), "v": np.maximum(u, v)}

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["u", "v"])

    E, ekeys = dsutil.driver_table(
        co_partition(edges.map_batches(canon, batch_format="numpy",
                                       batch_size=65536),
                     ["u", "v"], dedup), dsutil.BROADCAST_ROWS)
    n_edges = E.count()

    if ekeys is not None and n_edges:
        # broadcast path: the edge set ships to the driver ONCE
        # anyway (as the sorted packed-key close array), so degrees
        # and orientation come from that same pull instead of the
        # degree-sum + two attach exchanges the distributed path
        # needs — the only remaining all-to-all is the per-source
        # wedge-generation bucket. (packing needs 32-bit ids; wider
        # id spaces fall through to the exchange path)
        import ray

        eu = ekeys["u"].to_numpy(np.int64)
        ev = ekeys["v"].to_numpy(np.int64)
        mx = max(int(eu.max()), int(ev.max()), 0)
        if mx < (1 << 31):
            nodes_s, degs = np.unique(np.concatenate([eu, ev]),
                                      return_counts=True)
            n_nodes = len(nodes_s)
            keys = np.sort((eu.astype(np.uint64) << np.uint64(32))
                           | ev.astype(np.uint64))
            ref = ray.put((keys, nodes_s, degs.astype(np.int64)))

            def orient_b(b: dict) -> dict:
                _, ns, dg = ray.get(ref)
                u = np.asarray(b["u"], np.int64)
                v = np.asarray(b["v"], np.int64)
                du = dg[np.searchsorted(ns, u)]
                dv = dg[np.searchsorted(ns, v)]
                u_first = (du < dv) | ((du == dv) & (u < v))
                src = np.where(u_first, u, v)
                dst = np.where(u_first, v, u)
                return {"src": src, "dst": dst}

            def close_local(g: pd.DataFrame) -> pd.DataFrame:
                s = g["src"].to_numpy(np.int64)
                d = g["dst"].to_numpy(np.int64)
                o = np.lexsort((d, s))
                a, b2 = _pair_expand(s[o], d[o])
                if not len(a):
                    return pd.DataFrame({"t": [np.int64(0)]})
                wk = (a.astype(np.uint64) << np.uint64(32)) \
                    | b2.astype(np.uint64)
                ks = ray.get(ref)[0]
                pos = np.searchsorted(ks, wk)
                pos = np.minimum(pos, len(ks) - 1)
                hits = int((ks[pos] == wk).sum())
                return pd.DataFrame({"t": [np.int64(hits)]})

            parts = co_partition(
                E.map_batches(orient_b, batch_format="numpy",
                              batch_size=65536),
                "src", close_local).to_pandas()
            n_tri = int(parts["t"].sum()) if len(parts) else 0
            return pd.DataFrame({"n_nodes": [np.int64(n_nodes)],
                                 "n_edges": [np.int64(n_edges)],
                                 "n_triangles": [np.int64(n_tri)]})

    deg = degree_table(E).materialize()
    n_nodes = deg.count()

    cur = attach_degrees(E, deg)

    # orient from lower (deg, id); generate wedges per source bucket
    def orient(b: dict) -> dict:
        u = np.asarray(b["u"], np.int64)
        v = np.asarray(b["v"], np.int64)
        du = np.asarray(b["du"], np.int64)
        dv = np.asarray(b["dv"], np.int64)
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        return {"src": src, "dst": dst}

    oriented = cur.map_batches(orient, batch_format="numpy",
                               batch_size=65536)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        s = g["src"].to_numpy(np.int64)
        d = g["dst"].to_numpy(np.int64)
        o = np.lexsort((d, s))
        a, b = _pair_expand(s[o], d[o])
        # compact repeated (a, b) wedges before the exchange: apexes
        # in this bucket sharing an endpoint pair collapse to a count
        df = pd.DataFrame({"u": a, "v": b})
        df = df.groupby(["u", "v"], as_index=False, sort=False).size()
        df = df.rename(columns={"size": "_c"})
        df["_c"] = df["_c"].astype(np.int64)
        return df

    W = co_partition(oriented, "src", wedges)

    def edge_rows(b: dict) -> pd.DataFrame:
        u = np.asarray(b["u"], np.int64)
        v = np.asarray(b["v"], np.int64)
        return pd.DataFrame({"u": u, "v": v,
                             "_c": np.zeros(len(u), dtype=np.int64)})

    def close(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["_c"] == 0][["u", "v"]]
        w = g[g["_c"] > 0]
        if not len(e) or not len(w):
            return pd.DataFrame({"t": pd.Series([], dtype=np.int64)})
        m = w.merge(e.assign(_hit=np.int64(1)), on=["u", "v"],
                    how="inner")
        return pd.DataFrame({"t": [np.int64(m["_c"].sum())]})

    parts = co_partition(
        [W, E.map_batches(edge_rows, batch_format="pandas",
                          batch_size=65536)],
        ["u", "v"], close).to_pandas()
    n_tri = int(parts["t"].sum()) if len(parts) else 0
    return pd.DataFrame({"n_nodes": [np.int64(n_nodes)],
                         "n_edges": [np.int64(n_edges)],
                         "n_triangles": [np.int64(n_tri)]})


def bfs_numpy(src: np.ndarray, dst: np.ndarray, source: int,
              max_hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference BFS on the driver (directed edge list as given).
    Returns (nodes, dist) for nodes within max_hops of source."""
    import pandas as pd

    dist = {int(source): 0}
    frontier = np.array([source], dtype=np.int64)
    s = pd.Series(dst, index=src)
    for d in range(1, max_hops + 1):
        idx = s.index.intersection(pd.Index(frontier))
        if not len(idx):
            break
        nxt = np.unique(s.loc[idx].to_numpy(np.int64))
        new = np.array([v for v in nxt if v not in dist],
                       dtype=np.int64)
        for v in new:
            dist[int(v)] = d
        frontier = new
    nodes = np.array(sorted(dist), dtype=np.int64)
    return nodes, np.array([dist[int(v)] for v in nodes],
                           dtype=np.int64)


def bfs_hops(edges, source: int, max_hops: int = 6):
    """Exact hop distances from `source` for every node within
    `max_hops`, over an undirected edge Dataset with int64 columns
    `a`, `b`. BFS as iterative min-message dataflow: each hop unions
    the current (node, dist) table with (dst, dist+1) messages sent
    along edges co-partitioned with their source node, then takes the
    per-node min — the same two-co-partitions-per-iteration shape as
    connected_components, O(max_hops) rounds, never a
    driver-side graph. A node first reached at round t has true
    distance t (unit weights), so after H rounds the table is exactly
    {(v, d(v)) : d(v) <= H}. Early exit when a round adds no rows and
    changes no sum (monotone convergence check)."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    def both_dirs(b: dict) -> dict:
        a = np.asarray(b["a"], dtype=np.int64)
        bb = np.asarray(b["b"], dtype=np.int64)
        return {"src": np.concatenate([a, bb]),
                "dst": np.concatenate([bb, a])}

    edb = edges.map_batches(both_dirs, batch_format="numpy",
                            batch_size=65536).materialize()

    import ray

    dists = ray.data.from_pandas(pd.DataFrame({
        "node": np.array([source], dtype=np.int64),
        "dist": np.array([0], dtype=np.int64)}))

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["dst"].isna()][["node", "dist"]]
        ed_ = g[~g["dst"].isna()][["node", "dst"]].rename(
            columns={"node": "src"})
        m = ed_.merge(lab, left_on="src", right_on="node")
        out = pd.concat([
            lab,
            pd.DataFrame({"node": m["dst"].to_numpy(np.int64),
                          "dist": m["dist"].to_numpy(np.int64) + 1}),
        ], ignore_index=True)
        return min_per_node(out)

    def min_per_node(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["dist"].min()
        out["dist"] = out["dist"].astype(np.int64)
        return out

    prev = None
    for _ in range(max_hops):
        def dist_rows(b: dict) -> dict:
            return {"node": np.asarray(b["node"], dtype=np.int64),
                    "dst": np.full(len(b["node"]), np.nan),
                    "dist": np.asarray(b["dist"], dtype=np.int64)}

        def edge_rows(b: dict) -> dict:
            return {"node": np.asarray(b["src"], dtype=np.int64),
                    "dst": np.asarray(b["dst"], dtype=np.float64),
                    "dist": np.zeros(len(b["src"]), dtype=np.int64)}

        mixed = [dists.map_batches(dist_rows, batch_format="numpy",
                                   batch_size=65536),
                 edb.map_batches(edge_rows, batch_format="numpy",
                                 batch_size=65536)]
        # propagate emits per-bucket rows keyed by DESTINATION node; a
        # second co-partition merges messages that crossed buckets
        nxt = co_partition(co_partition(mixed, "node", propagate),
                           "node", min_per_node).materialize()
        stat = nxt.aggregate(Count(), Sum("dist", alias_name="s"))
        cur = (stat["count()"], stat["s"])
        dists = nxt
        if prev is not None and cur == prev:
            break
        prev = cur
    return dists


def sssp_hops(edges, source: int, max_rounds: int = 4):
    """Bounded-round single-source shortest paths over an undirected
    weighted edge Dataset (int64 columns `a`, `b`, `w`, w >= 0):
    Bellman-Ford as iterative min-plus message dataflow — each round
    relaxes every edge whose source node holds a distance, takes the
    per-node min of old distances and (dist[src] + w) messages, with
    the same two-co-partitions-per-round shape as bfs_hops.
    After H rounds the table holds exactly {(v, min over <=H-edge
    paths of total weight)} — the bounded-hop min-plus semiring power,
    which a recursive-CTE oracle reproduces. Early exit on monotone
    convergence (no count/sum change)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Count, Sum

    def both_dirs(b: dict) -> dict:
        a = np.asarray(b["a"], dtype=np.int64)
        bb = np.asarray(b["b"], dtype=np.int64)
        w = np.asarray(b["w"], dtype=np.int64)
        return {"src": np.concatenate([a, bb]),
                "dst": np.concatenate([bb, a]),
                "w": np.concatenate([w, w])}

    edb = edges.map_batches(both_dirs, batch_format="numpy",
                            batch_size=65536).materialize()

    dists = ray.data.from_pandas(pd.DataFrame({
        "node": np.array([source], dtype=np.int64),
        "dist": np.array([0], dtype=np.int64)}))

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["dst"].isna()][["node", "dist"]]
        ed_ = g[~g["dst"].isna()][["node", "dst", "w"]].rename(
            columns={"node": "src"})
        m = ed_.merge(lab, left_on="src", right_on="node")
        out = pd.concat([
            lab,
            pd.DataFrame({"node": m["dst"].to_numpy(np.int64),
                          "dist": m["dist"].to_numpy(np.int64)
                          + m["w"].to_numpy(np.int64)}),
        ], ignore_index=True)
        return min_per_node(out)

    def min_per_node(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", as_index=False)["dist"].min()
        out["dist"] = out["dist"].astype(np.int64)
        return out

    prev = None
    for _ in range(max_rounds):
        def dist_rows(b: dict) -> dict:
            return {"node": np.asarray(b["node"], dtype=np.int64),
                    "dst": np.full(len(b["node"]), np.nan),
                    "w": np.zeros(len(b["node"]), dtype=np.int64),
                    "dist": np.asarray(b["dist"], dtype=np.int64)}

        def edge_rows(b: dict) -> dict:
            return {"node": np.asarray(b["src"], dtype=np.int64),
                    "dst": np.asarray(b["dst"], dtype=np.float64),
                    "w": np.asarray(b["w"], dtype=np.int64),
                    "dist": np.zeros(len(b["src"]), dtype=np.int64)}

        mixed = [dists.map_batches(dist_rows, batch_format="numpy",
                                   batch_size=65536),
                 edb.map_batches(edge_rows, batch_format="numpy",
                                 batch_size=65536)]
        nxt = co_partition(co_partition(mixed, "node", propagate),
                           "node", min_per_node).materialize()
        stat = nxt.aggregate(Count(), Sum("dist", alias_name="s"))
        cur = (stat["count()"], stat["s"])
        dists = nxt
        if prev is not None and cur == prev:
            break
        prev = cur
    return dists
