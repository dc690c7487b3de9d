"""Similarity search over an embedding column (list<float>).

- `ann_brute`: exact cosine top-k — query matrix broadcast once
  (`ray.put`), per-batch numpy matmul + partial top-k, small global
  merge. The baseline.
- `ann_ivf`: IVF-style scale path over an in-memory Dataset — k-means
  coarse centroids trained on a RANDOM sample, each batch pruned to the
  union of probed lists, per-query visibility applied with one boolean
  membership mask (no per-query scan).
- `ivf_build` / `ann_ivf_index`: the 100-TB shape — vectors routed once
  into per-list parquet partitions (`partition_cols=["ivf_list"]`), and
  a query reads ONLY its `nprobe` list partitions from storage, so probe
  pruning cuts I/O, not just compute.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _as_matrix(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in col])


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.where(n == 0, 1.0, n)


def ann_brute(ds, queries: np.ndarray, k: int = 10,
              vec_col: str = "embedding", id_col: str = "vec_id",
              batch_size: int = 8192):
    """Exact cosine top-k. Returns pandas DataFrame
    (q, nid, cosine, rank)."""
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    qref = ray.put(Q)

    def local(batch):
        import pandas as pd

        Qm = ray.get(qref)
        V = _normalize(_as_matrix(batch[vec_col]))
        ids = np.asarray(batch[id_col])
        sims = Qm @ V.T  # (nq, n)
        kk = min(k, sims.shape[1])
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        nq = Qm.shape[0]
        return pd.DataFrame({
            "q": np.repeat(np.arange(nq, dtype=np.int64), kk),
            "nid": ids[part].ravel(),
            "cosine": sims[np.arange(nq)[:, None], part].ravel(),
        })

    cand = ds.map_batches(local, batch_format="numpy",
                          batch_size=batch_size)
    return merge_topk(cand, k)


def merge_topk(cand, k: int, score: str = "cosine",
               descending: bool = True):
    """Final per-query top-k of a (q, nid, `score`) candidate table,
    best `score` first and ties to the smaller nid, ranked from 1. Each
    block already contributed <= nq*k candidate rows; at most
    `dsutil.DRIVER_FINISH_ROWS` total rows the merge is one driver-side
    concat of that bounded table. Above it (many blocks — the 100-TB
    case) a groupby("q") pre-merge runs distributed so the driver
    receives <= nq*k rows regardless of block count."""
    import pandas as pd

    from proj_ray import dsutil

    order = [not descending, True]
    cand, allc = dsutil.driver_table(cand, dsutil.DRIVER_FINISH_ROWS)
    if allc is None:
        def topk(g):
            return g.sort_values([score, "nid"], ascending=order).head(k)

        allc = dsutil.pull_pandas(
            cand.groupby("q").map_groups(topk, batch_format="pandas"))
    if allc.empty:
        allc = pd.DataFrame({"q": np.empty(0, np.int64),
                             "nid": np.empty(0, np.int64),
                             score: np.empty(0, np.float64)})
    allc = (allc.sort_values(["q", score, "nid"], ascending=[True, *order])
                .groupby("q").head(k))
    allc["rank"] = allc.groupby("q").cumcount() + 1
    return allc.reset_index(drop=True)


def _stable_mod(ids, m: int) -> np.ndarray:
    """Deterministic per-id residue, vectorized (splitmix64 for ints,
    pandas hash_array for strings) — no per-row hashlib in the
    full-dataset sampling pass."""
    from proj_ray.functions._hash import stable_mod

    return stable_mod(ids, m)


def train_centroids(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                    n_centroids: int = 64, sample: int = 10000,
                    iters: int = 10, seed: int = 42) -> np.ndarray:
    """Driver-side k-means on a bounded RANDOM sample: rows are picked by
    a stable hash of their id (uniform across the dataset, unlike a
    `limit()` head sample), gathered distributed, materialized only as
    the <= `sample`-row training set."""
    n = ds.count()
    step = max(1, int(n) // max(1, sample))

    def pick(batch):
        ids = np.asarray(batch[id_col])
        keep = _stable_mod(ids, step) == 0 if step > 1 else \
            np.ones(len(ids), dtype=bool)
        return {vec_col: np.asarray(batch[vec_col], dtype=object)[keep]}

    rows = ds.map_batches(pick, batch_format="numpy") \
             .limit(sample).take_all()
    X = _normalize(np.stack([np.asarray(r[vec_col], dtype=np.float64)
                             for r in rows]))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for ci in range(len(C)):
            m = assign == ci
            if m.any():
                v = X[m].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    C[ci] = v / nv
    return C


def _probe_topk(batch, Qm, Cm, member, k, vec_col, id_col,
                quantize=None):
    """Shared per-batch kernel: prune rows to probed lists, then apply
    per-query list visibility with one (nq, n) mask — no per-query scan.

    In quantize mode, each stored vector's list is recomputed with the
    IDENTICAL floor(v*scale+0.5) int64 routing `ivf_build` used to
    partition it (a float argmax here could disagree with the stored
    partition when the top-2 centroid gap is below quantization error,
    wrongly masking probed candidates)."""
    import pandas as pd

    Vraw = _as_matrix(batch[vec_col])
    V = _normalize(Vraw)
    ids = np.asarray(batch[id_col])
    if quantize:
        Vq = np.floor(Vraw * float(quantize) + 0.5).astype(np.int64)
        lists = np.argmax(Vq @ np.rint(Cm).astype(np.int64).T, axis=1)
    else:
        lists = np.argmax(V @ Cm.T, axis=1)
    keep = member.any(axis=0)[lists]
    if not keep.any():
        return pd.DataFrame({"q": np.empty(0, np.int64),
                             "nid": np.empty(0, object),
                             "cosine": np.empty(0, np.float64)})
    V, ids, lists = V[keep], ids[keep], lists[keep]
    sims = Qm @ V.T                      # (nq, n_kept)
    sims[~member[:, lists]] = -np.inf    # per-query probe visibility
    nq = Qm.shape[0]
    kk = min(k, sims.shape[1])
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    qs = np.repeat(np.arange(nq, dtype=np.int64), kk)
    flat = sims[np.arange(nq)[:, None], part].ravel()
    good = np.isfinite(flat)
    return pd.DataFrame({"q": qs[good], "nid": ids[part].ravel()[good],
                         "cosine": flat[good]})


def _membership(Q, C, nprobe: int):
    """(nq, nlists) bool: which lists each query probes."""
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]
    member = np.zeros((Q.shape[0], C.shape[0]), dtype=bool)
    member[np.arange(Q.shape[0])[:, None], probe] = True
    return member


def formula_centroids(n_centroids: int, dim: int) -> np.ndarray:
    """Deterministic +-1 routing basis with EQUAL row norms AND
    GUARANTEED-DISTINCT rows: Hadamard-style entries
    (l, d) = 1 - 2*(popcount(l & (d % n)) % 2). Rows l != l' differ at
    d = lowest set bit of l XOR l' (< n <= dim), so no two rows can
    coincide; the first n columns are the order-n Sylvester-Hadamard
    block, so routing directions are mutually orthogonal — maximally
    spread. (An earlier mod-97 formula produced duplicate rows — lists
    17,18,19,26,27 of (32, 64) duplicated 1,2,3,10,11 — leaving 5
    lists permanently empty and wasting probe slots.) Equal norms make
    nearest-centroid assignment scale-invariant, so routing can run on
    int-quantized raw vectors with EXACT integer dot products — the
    SQL-oracle-reproducible IVF mode (see ivf_build quantize=).
    SQL mirror: 1 - 2*(bit_count(l & (d % n)) % 2)."""
    if n_centroids > dim:
        raise ValueError(f"need dim >= n_centroids for distinct rows "
                         f"(got {n_centroids} > {dim})")
    li = np.arange(n_centroids, dtype=np.int64)[:, None]
    di = np.arange(dim, dtype=np.int64)[None, :]
    masked = li & (di % n_centroids)
    pop = np.zeros_like(masked)
    m = masked.copy()
    while m.any():
        pop += m & 1
        m >>= 1
    C = (1 - 2 * (pop % 2)).astype(np.float64)
    assert len(np.unique(C, axis=0)) == n_centroids
    return C


def _quantized_membership(Q, C, nprobe: int, quantize: int):
    """Probe-list selection on exact integer dots (ties -> lower list
    id), mirroring a SQL ROW_NUMBER() OVER (ORDER BY dot DESC, l).
    Quantization is floor(v*scale+0.5) — the same half-up convention
    as ivf_build/kmeans_assign_stats and the SQL oracle (np.rint's
    half-even would diverge for components exactly on the grid)."""
    Qq = np.floor(np.asarray(Q, dtype=np.float64) * quantize + 0.5) \
        .astype(np.int64)
    dots = Qq @ np.rint(C).astype(np.int64).T
    probe = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
    member = np.zeros((Q.shape[0], C.shape[0]), dtype=bool)
    member[np.arange(Q.shape[0])[:, None], probe] = True
    return member


def ann_ivf(ds, queries: np.ndarray, k: int = 10, centroids=None,
            nprobe: int = 4, vec_col: str = "embedding",
            id_col: str = "vec_id", batch_size: int = 8192):
    """IVF cosine top-k over an in-memory Dataset. Approximate; recall
    grows with nprobe. Returns DataFrame (q, nid, cosine, rank)."""
    import ray

    if centroids is None:
        centroids = train_centroids(ds, vec_col=vec_col, id_col=id_col)
    C = np.asarray(centroids, dtype=np.float64)
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    member = _membership(Q, C, nprobe)
    cref, qref, mref = ray.put(C), ray.put(Q), ray.put(member)

    def local(batch):
        return _probe_topk(batch, ray.get(qref), ray.get(cref),
                           ray.get(mref), k, vec_col, id_col)

    cand = ds.map_batches(local, batch_format="numpy",
                          batch_size=batch_size)
    return merge_topk(cand, k)


def ivf_build(ds, path: str, centroids=None, n_centroids: int = 64,
              vec_col: str = "embedding", id_col: str = "vec_id",
              quantize: int | None = None):
    """Route every vector to its nearest-centroid list and write one
    parquet partition per list (`ivf_list=<id>/`). One shuffle-free
    pass; the index directory is the persistent IVF structure a query
    then probes partially. Returns the centroid matrix (also saved to
    `<path>/centroids.npy`).

    Partitioning assumption (all persistent indexes in this repo): on
    a multi-node cluster `path` must be cluster-shared storage
    (NFS/S3-fuse) — writer tasks and later probe tasks land on
    different nodes."""
    import ray

    if centroids is None:
        centroids = train_centroids(ds, vec_col=vec_col, id_col=id_col,
                                    n_centroids=n_centroids)
    C = np.asarray(centroids, dtype=np.float64)
    cref = ray.put(C)

    def assign(batch):
        Cm = ray.get(cref)
        if quantize:
            # exact integer routing (equal-norm centroids assumed):
            # np.argmax takes the FIRST max = SQL's dot DESC, l ASC;
            # floor(v*scale+0.5) matches the SQL oracle's half-up
            Vq = np.floor(_as_matrix(batch[vec_col]) * quantize + 0.5) \
                .astype(np.int64)
            dots = Vq @ np.rint(Cm).astype(np.int64).T
            batch["ivf_list"] = np.argmax(dots, axis=1).astype(np.int64)
            return batch
        V = _normalize(_as_matrix(batch[vec_col]))
        batch["ivf_list"] = np.argmax(V @ Cm.T, axis=1).astype(np.int64)
        return batch

    # sort by list id before writing: blocks align with partition
    # values, so each ivf_list=<id>/ holds O(1) files instead of one
    # per (input block x list) — probe-time read_parquet metadata cost
    # scales with lists probed, not with builder parallelism
    ds.map_batches(assign, batch_format="numpy") \
      .sort("ivf_list") \
      .write_parquet(path, partition_cols=["ivf_list"])
    np.save(f"{path}/centroids.npy", C)
    return C


def ivf_append(ds, path: str, vec_col: str = "embedding",
               id_col: str = "vec_id", quantize: int | None = None):
    """Append a NEW shard to an existing IVF directory — the
    daily-increment shape for vectors: the delta routes against the
    PERSISTED centroids (`<path>/centroids.npy`) with the identical
    assignment rule the build used, and writes into the same
    `ivf_list=<id>/` partition layout (Ray's unique file names never
    clobber history). Because routing depends only on the centroids,
    probe results over build+append equal a single build over the
    union — history is never rewritten or rescanned. Returns the
    centroid matrix."""
    C = np.load(f"{path}/centroids.npy")
    return ivf_build(ds, path, centroids=C, vec_col=vec_col,
                     id_col=id_col, quantize=quantize)


def ann_ivf_index(path: str, queries: np.ndarray, k: int = 10,
                  nprobe: int = 4, vec_col: str = "embedding",
                  id_col: str = "vec_id", batch_size: int = 8192,
                  quantize: int | None = None):
    """Query a built IVF directory: reads ONLY the union of the queries'
    `nprobe` list partitions — I/O scales with nprobe/nlists, not with
    the corpus. Returns DataFrame (q, nid, cosine, rank)."""
    import os

    import ray
    import ray.data as rd

    C = np.load(f"{path}/centroids.npy")
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    if quantize:
        member = _quantized_membership(queries, C, nprobe, quantize)
    else:
        member = _membership(Q, C, nprobe)
    needed = np.flatnonzero(member.any(axis=0))
    dirs = [os.path.join(path, f"ivf_list={li}") for li in needed
            if os.path.isdir(os.path.join(path, f"ivf_list={li}"))]
    files = [os.path.join(d, f) for d in dirs for f in sorted(os.listdir(d))
             if f.endswith(".parquet")]
    if not files:
        import pandas as pd

        return pd.DataFrame({"q": np.empty(0, np.int64),
                             "nid": np.empty(0, np.int64),
                             "cosine": np.empty(0, np.float64),
                             "rank": np.empty(0, np.int64)})
    ds = rd.read_parquet(files)
    qref, cref, mref = ray.put(Q), ray.put(C), ray.put(member)

    def local(batch):
        return _probe_topk(batch, ray.get(qref), ray.get(cref),
                           ray.get(mref), k, vec_col, id_col,
                           quantize=quantize)

    cand = ds.map_batches(local, batch_format="numpy",
                          batch_size=batch_size)
    return merge_topk(cand, k)


def pq_adc_topk(ds, query_ids, k: int = 10, m: int = 4, ncode: int = 16,
                vec_col: str = "embedding", id_col: str = "vec_id",
                scale: int = 1_000_000, batch_size: int = 8192):
    """Product-quantization top-k by asymmetric distance computation
    (Jegou, Douze & Schmid, PAMI 2011 — 'Product quantization for
    nearest neighbor search'), in EXACT integer arithmetic so a SQL
    oracle reproduces ranks bit-for-bit.

    The vector splits into `m` subspaces of dim/m dims; each subspace
    encodes to its argmax-dot code against the deterministic
    equal-norm Hadamard codebook (`formula_centroids(ncode, dim/m)`,
    ties -> lowest code), on the repo's floor(v*scale+0.5) int64
    quantization. A query never touches stored vectors: its per-
    subspace lookup tables T_j[c] = q(query_sub_j) . C[c] broadcast
    once, and each stored vector scores as sum_j T_j[code_j(v)] — m
    int64 gathers per row instead of a dim-wide dot. At 100 TB the
    codes (m bytes/vector) are what an index stores; here encode+score
    fuse into one map_batches pass with per-block top-k pruning, so
    the exchange ships <= nq*k candidate rows per block.

    `query_ids`: vectors with id_col in this list are the queries
    (fetched in one pruned read-side filter). Returns pandas
    (q, nid, score, rk), rk 1..k per query by score desc, id asc.
    """
    import pandas as pd
    import ray

    qids = sorted(int(x) for x in query_ids)
    qset = set(qids)
    qrows = [r for r in
             ds.filter(expr=f"{id_col} <= {qids[-1]}").take_all()
             if int(r[id_col]) in qset]
    qrows.sort(key=lambda r: r[id_col])
    Qraw = np.stack([np.asarray(r[vec_col], dtype=np.float64)
                     for r in qrows])
    dim = Qraw.shape[1]
    sub = dim // m
    C = formula_centroids(ncode, sub).astype(np.int64)  # (ncode, sub)
    Qq = np.floor(Qraw * float(scale) + 0.5).astype(np.int64)
    # per-query, per-subspace lookup tables: (nq, m, ncode)
    T = np.einsum("qjd,cd->qjc", Qq.reshape(len(qids), m, sub), C)
    tref = ray.put((np.asarray(qids, dtype=np.int64), C, T))

    def score_block(b: dict) -> pd.DataFrame:
        qid_arr, Cm, Tm = ray.get(tref)
        Vq = np.floor(_as_matrix(b[vec_col]) * float(scale)
                      + 0.5).astype(np.int64).reshape(-1, m, sub)
        ids = np.asarray(b[id_col], dtype=np.int64)
        # encode: argmax int dot per subspace (first max = lowest code)
        codes = np.argmax(np.einsum("njd,cd->njc", Vq, Cm), axis=2)
        acc = np.zeros((Tm.shape[0], len(ids)), dtype=np.int64)
        for j in range(m):
            acc += Tm[:, j, codes[:, j]]
        nq = Tm.shape[0]
        kk = min(k, acc.shape[1])
        # per-block prune to k per query: score desc, id asc
        order = np.lexsort((ids[None, :].repeat(nq, 0), -acc), axis=1)
        pick = order[:, :kk]
        return pd.DataFrame({
            "q": np.repeat(qid_arr, kk),
            "nid": ids[pick].ravel(),
            "score": acc[np.arange(nq)[:, None], pick].ravel()})

    cand = (ds.select_columns([id_col, vec_col])
            .map_batches(score_block, batch_format="numpy",
                         batch_size=batch_size).to_pandas())
    out = (cand.sort_values(["q", "score", "nid"],
                            ascending=[True, False, True], kind="stable")
           .groupby("q").head(k).reset_index(drop=True))
    out["rk"] = (out.groupby("q").cumcount() + 1).astype(np.int64)
    for c in ("q", "nid", "score"):
        out[c] = out[c].astype(np.int64)
    return out


def mips_topk(ds, query_id: int, k: int = 10,
              vec_col: str = "embedding", id_col: str = "vec_id",
              scale: int = 1_000_000, batch_size: int = 8192):
    """Exact maximum-inner-product top-k in int64 fixed point: both
    sides quantize with the repo's floor(v*scale+0.5) convention, so
    scores and ranks are SQL-oracle-exact. One broadcast of the query
    vector, one (B, dim) x dim int matmul per batch with a per-block
    top-k prune — the combine sees <= k rows per block. Returns
    pandas (rk, id, dot) ranked by dot desc, id asc."""
    import pandas as pd
    import ray

    qrow = [r for r in
            ds.filter(expr=f"{id_col} <= {int(query_id)}").take_all()
            if int(r[id_col]) == int(query_id)]
    Qq = np.floor(np.asarray(qrow[0][vec_col], dtype=np.float64)
                  * float(scale) + 0.5).astype(np.int64)
    qref = ray.put(Qq)

    def score(b: dict) -> pd.DataFrame:
        qv = ray.get(qref)
        V = np.floor(_as_matrix(b[vec_col]) * float(scale)
                     + 0.5).astype(np.int64)
        ids = np.asarray(b[id_col], dtype=np.int64)
        dots = V @ qv
        kk = min(k, len(ids))
        pick = np.lexsort((ids, -dots))[:kk]
        return pd.DataFrame({"id": ids[pick], "dot": dots[pick]})

    cand = (ds.select_columns([id_col, vec_col])
            .map_batches(score, batch_format="numpy",
                         batch_size=batch_size).to_pandas())
    out = (cand.sort_values(["dot", "id"], ascending=[False, True],
                            kind="stable").head(k)
           .reset_index(drop=True))
    out.insert(0, "rk", np.arange(1, len(out) + 1, dtype=np.int64))
    out["id"] = out["id"].astype(np.int64)
    out["dot"] = out["dot"].astype(np.int64)
    return out


def rrf_fuse(ranked_lists, k: int = 10, c: int = 60,
             scale: int = 1_000_000_000):
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher, SIGIR
    2009) in exact integer arithmetic: each (id, rank) list
    contributes scale // (c + rank); absent ids contribute 0.
    Returns pandas (rk, id, rrf) — top-k by fused score desc, id asc.
    Driver-side by design: the inputs are already top-N lists (a few
    hundred rows), the corpus-scale work happened in the retrievers."""
    import pandas as pd

    acc: dict[int, int] = {}
    for lst in ranked_lists:
        for i, r in zip(lst["id"].astype(np.int64),
                        lst["rank"].astype(np.int64)):
            acc[int(i)] = acc.get(int(i), 0) + int(scale) // (c + int(r))
    df = pd.DataFrame(sorted(acc.items()), columns=["id", "rrf"])
    df = (df.sort_values(["rrf", "id"], ascending=[False, True],
                         kind="stable").head(k).reset_index(drop=True))
    df.insert(0, "rk", np.arange(1, len(df) + 1, dtype=np.int64))
    for col in ("id", "rrf"):
        df[col] = df[col].astype(np.int64)
    return df


def kmeans_assign_stats(ds, n_centroids: int = 8,
                        vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        scale: int = 1_000_000):
    """The k-means E-step at corpus scale: assign every vector to its
    nearest (cosine) centroid and emit per-cluster statistics.

    Centroids are FIXED deterministic rows (ids < n_centroids) so the
    step is fully reproducible: broadcast them once (ray.put), assign
    per batch with one matmul, and aggregate (count, dim-weighted
    checksum of int-quantized raw elements). Elements are quantized to
    floor(v*scale+0.5) int64 BEFORE summation, so the distributed sum
    is order-free exact — the property an M-step accumulator needs to
    be reproducible across block orders (and what lets a SQL oracle
    match bit-for-bit). Partial stats combine in map_batches passes;
    the all-to-all never moves vectors."""
    import pandas as pd
    import ray

    cent = ds.filter(expr=f"{id_col} < {n_centroids}").take_all()
    cent.sort(key=lambda r: r[id_col])
    C = _normalize(np.stack([np.asarray(r[vec_col], dtype=np.float64)
                             for r in cent]))
    ref = ray.put(C)
    d = C.shape[1]
    w = np.arange(1, d + 1, dtype=np.int64)

    def partial(b: dict) -> dict:
        V = _as_matrix(b[vec_col])
        Cn = ray.get(ref)
        # cosine argmax: |v| is constant per row, so normalizing only
        # the centroid side preserves the argmax
        cid = np.argmax(V @ Cn.T, axis=1).astype(np.int64)
        q = np.floor(V * float(scale) + 0.5).astype(np.int64)
        chk = q @ w
        g = (pd.DataFrame({"cid": cid, "chk": chk})
             .groupby("cid", as_index=False)
             .agg(n_part=("chk", "size"), s_part=("chk", "sum")))
        return {"cid": g["cid"].to_numpy(np.int64),
                "n_part": g["n_part"].to_numpy(np.int64),
                "s_part": g["s_part"].to_numpy(np.int64)}

    def combine(b: dict) -> dict:
        g = (pd.DataFrame({"cid": b["cid"], "n": b["n_part"],
                           "s": b["s_part"]})
             .groupby("cid", as_index=False).sum())
        return {"cid": g["cid"].to_numpy(np.int64),
                "n_part": g["n"].to_numpy(np.int64),
                "s_part": g["s"].to_numpy(np.int64)}

    parts = (ds.select_columns([id_col, vec_col])
             .map_batches(partial, batch_format="numpy",
                          batch_size=4096)
             .map_batches(combine, batch_format="numpy",
                          batch_size=65536)
             .take_all())
    out: dict = {}
    for r in parts:
        n, s = out.get(r["cid"], (0, 0))
        out[r["cid"]] = (n + int(r["n_part"]), s + int(r["s_part"]))
    res = pd.DataFrame(
        [(cid, n, s) for cid, (n, s) in sorted(out.items())],
        columns=["cid", "n_vecs", "sum_chk"])
    res["cid"] = res["cid"].astype(np.int64)
    res["n_vecs"] = res["n_vecs"].astype(np.int64)
    res["sum_chk"] = res["sum_chk"].astype(np.int64)
    return res


def gram_matrix(ds, vec_col: str = "embedding",
                scale: int = 1_000_000, batch_size: int = 8192):
    """Distributed Gram (raw second-moment) matrix of an embedding
    column: G[i, j] = sum over rows of q(x_i) * q(x_j), with
    q = floor(v * scale + 0.5) int64 — the repo-wide half-up
    fixed-point convention (shared with kmeans_assign_stats and the
    SQL oracle), so the distributed sum is order-free EXACT.

    This is the building block for covariance / PCA / linear probes at
    corpus scale: each block contributes one d x d partial via a
    single int64 matmul (X^T X), so the all-to-all moves d*d-sized
    partial frames — never vectors — and the driver's final combine is
    bounded by the upper-triangle size, not the row count.

    Returns the upper triangle as rows (i, j, s) with 1-based indices
    (matching SQL generate_subscripts). int64 bound: scale^2 *
    max|v|^2 * n_rows must stay below 2^63 (~2e5-quantized components
    hold to ~2e8 rows; raise batch/driver combine to python ints past
    that — documented scale path).
    """
    import pandas as pd

    def partial(b: dict) -> dict:
        M = _as_matrix(b[vec_col])
        Q = np.floor(M.astype(np.float64) * float(scale)
                     + 0.5).astype(np.int64)
        G = Q.T @ Q
        d = G.shape[0]
        iu, ju = np.triu_indices(d)
        return {"i": (iu + 1).astype(np.int64),
                "j": (ju + 1).astype(np.int64),
                "s": G[iu, ju].astype(np.int64)}

    def combine(b: dict) -> dict:
        g = (pd.DataFrame({"i": b["i"], "j": b["j"], "s": b["s"]})
             .groupby(["i", "j"], as_index=False).sum())
        return {"i": g["i"].to_numpy(np.int64),
                "j": g["j"].to_numpy(np.int64),
                "s": g["s"].to_numpy(np.int64)}

    parts = (ds.select_columns([vec_col])
             .map_batches(partial, batch_format="numpy",
                          batch_size=batch_size)
             .map_batches(combine, batch_format="numpy",
                          batch_size=65536)
             .map_batches(combine, batch_format="numpy",
                          batch_size=65536)
             .to_pandas())
    fin = parts.groupby(["i", "j"], as_index=False).sum()
    fin = fin.sort_values(["i", "j"], kind="stable").reset_index(
        drop=True)
    for c in ("i", "j", "s"):
        fin[c] = fin[c].astype(np.int64)
    return fin


def pca_from_gram(gram_df, n_rows: int, mean_counts=None,
                  scale: int = 1_000_000, k: int = 8):
    """Driver-side completion of distributed PCA: turn the upper-
    triangle Gram frame from :func:`gram_matrix` (plus the per-
    dimension quantized component sums, if centering is wanted) into
    the top-k eigenvalues/eigenvectors of the covariance matrix.

    The distributed work IS gram_matrix (+ a trivial column-sum pass
    for the mean); this step is an O(d^3) eigh on the d x d matrix —
    driver-bounded by the embedding dimension, never the corpus. With
    mean_counts=None the decomposition is of the RAW second-moment
    matrix (uncentered PCA / Gram spectrum)."""
    d = int(gram_df["j"].max())
    G = np.zeros((d, d), dtype=np.float64)
    i = gram_df["i"].to_numpy() - 1
    j = gram_df["j"].to_numpy() - 1
    s = gram_df["s"].to_numpy(dtype=np.float64)
    G[i, j] = s
    G[j, i] = s
    M = G / (float(scale) ** 2)
    if mean_counts is not None:
        mu = np.asarray(mean_counts, dtype=np.float64) / (
            float(scale) * n_rows)
        M = M / n_rows - np.outer(mu, mu)
    else:
        M = M / n_rows
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1][:k]
    return w[order], V[:, order]


def label_centroid_outliers(ds, k: int = 5, vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            label_col: str = "label",
                            quantize: int = 1_000_000):
    """Hard-example mining: the k vectors farthest from their own
    label's centroid, per label — the "drop samples far from the class
    centroid" curation pass.

    Fixed-point contract (bit-exact SQL parity): components quantize
    with the module's floor(v*scale+0.5) half-up convention; the
    centroid is the per-dimension TRUNCATED integer mean (DuckDB's
    `//` truncates toward zero, so the engine mirrors sign*(|S|//n)
    rather than numpy floor division); dist2 is the exact int64
    squared distance in the quantized space.

    Scale shape: pass 1 ships one (label, n, component-sum) partial
    per block per label — the centroid table is labels x dim, driver-
    small; pass 2 is a stateless scored map; the top-k reduction ships
    per-block (label, id, dist2) candidates capped at k per label per
    block into a tiny per-label combine.
    """
    import pandas as pd
    import ray

    def _quant(col):
        return np.floor(_as_matrix(col) * float(quantize) + 0.5) \
            .astype(np.int64)

    def partial_sums(batch: pd.DataFrame) -> pd.DataFrame:
        Vq = _quant(batch[vec_col])
        lab = batch[label_col].to_numpy(np.int64)
        rows = []
        for lv in np.unique(lab):
            m = lab == lv
            rows.append((int(lv), int(m.sum()),
                         Vq[m].sum(axis=0).astype(np.int64).tobytes()))
        return pd.DataFrame(rows, columns=["_l", "_n", "_s"])

    parts = ds.map_batches(partial_sums, batch_format="pandas",
                           batch_size=None).to_pandas()
    cents = {}
    for lv, grp in parts.groupby("_l"):
        n = int(grp["_n"].sum())
        S = np.zeros(len(np.frombuffer(grp["_s"].iloc[0],
                                       dtype=np.int64)), dtype=np.int64)
        for buf in grp["_s"]:
            S += np.frombuffer(buf, dtype=np.int64)
        cents[int(lv)] = np.sign(S) * (np.abs(S) // n)  # trunc toward 0
    cent_ref = ray.put(cents)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        C = ray.get(cent_ref)
        Vq = _quant(batch[vec_col])
        lab = batch[label_col].to_numpy(np.int64)
        ids = batch[id_col].to_numpy(np.int64)
        d2 = np.empty(len(batch), dtype=np.int64)
        for lv in np.unique(lab):
            m = lab == lv
            diff = Vq[m] - C[int(lv)][None, :]
            d2[m] = (diff * diff).sum(axis=1)
        out = pd.DataFrame({"label": lab, id_col: ids, "dist2": d2})
        # per-block pre-prune: only k candidates per label survive
        out = out.sort_values(["label", "dist2", id_col],
                              ascending=[True, False, True])
        return out.groupby("label", sort=False).head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dist2", id_col],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["label", id_col, "dist2", "rk"]]

    return (ds.map_batches(score, batch_format="pandas")
              .groupby("label").map_groups(final, batch_format="pandas"))


def _trunc_div(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Integer division truncating toward zero — DuckDB's `//` on
    BIGINT (numpy's // floors, which differs on negative sums)."""
    q = np.abs(s) // n
    return np.where(s >= 0, q, -q).astype(np.int64)


def kmeans_lloyd(ds, k: int = 8, iters: int = 3,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 scale: int = 1_000_000):
    """Full iterative Lloyd k-means in exact integer arithmetic:
    elements quantize once to floor(v*scale+0.5) int64; assignment is
    the exact squared-Euclidean argmin in quantized space (ties ->
    lowest cluster id); the M-step centroid is the per-dim TRUNCATED
    integer mean (DuckDB `//`), so every iteration — and therefore the
    SQL oracle's chained-CTE mirror — is bit-reproducible. Clusters
    that lose all members drop out (mirrored).

    Per iteration: centroids broadcast via ray.put, one pass emits
    k x (2 + dim) partial accumulator rows per block, the driver
    reduces k rows and updates centroids — vectors never cross an
    all-to-all (the kmeans_assign_stats contract, iterated).

    Returns pandas (cid, n_vecs, cchk) after `iters` updates, where
    cchk = sum(centroid_d * (d+1)) pins every dimension."""
    import pandas as pd
    import ray

    cent = ds.filter(expr=f"{id_col} < {k}").take_all()
    cent.sort(key=lambda r: r[id_col])
    C = np.floor(np.stack([np.asarray(r[vec_col], dtype=np.float64)
                           for r in cent]) * float(scale)
                 + 0.5).astype(np.int64)
    cids = np.arange(k, dtype=np.int64)
    d = C.shape[1]

    n_last = None
    for _ in range(iters):
        ref = ray.put((cids.copy(), C.copy()))

        def partial(b: dict) -> pd.DataFrame:
            ids, cc = ray.get(ref)
            V = np.floor(_as_matrix(b[vec_col]) * float(scale)
                         + 0.5).astype(np.int64)
            # exact integer distances: |v|^2 - 2 v.c + |c|^2
            dist = ((V * V).sum(axis=1, keepdims=True)
                    - 2 * (V @ cc.T) + (cc * cc).sum(axis=1)[None, :])
            a = np.argmin(dist, axis=1)  # first hit = lowest position
            rows = []
            for j in range(len(ids)):
                m = a == j
                nj = int(m.sum())
                if nj:
                    rows.append(np.r_[ids[j], nj, V[m].sum(axis=0)])
            if not rows:
                return pd.DataFrame(
                    np.empty((0, d + 2), dtype=np.int64),
                    columns=["cid", "n"] + [f"s{i}" for i in range(d)])
            return pd.DataFrame(np.stack(rows).astype(np.int64),
                                columns=["cid", "n"]
                                + [f"s{i}" for i in range(d)])

        parts = ds.map_batches(partial,
                               batch_format="numpy").to_pandas()
        agg = parts.groupby("cid", sort=True).sum()
        n = agg["n"].to_numpy(np.int64)
        sums = agg[[f"s{i}" for i in range(d)]].to_numpy(np.int64)
        cids = agg.index.to_numpy(np.int64)   # empty clusters drop
        C = _trunc_div(sums, n[:, None])
        n_last = n

    w = np.arange(1, d + 1, dtype=np.int64)
    return pd.DataFrame({"cid": cids, "n_vecs": n_last,
                         "cchk": C @ w})
