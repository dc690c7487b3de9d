"""Deterministic stratified sampling over Ray Data datasets.

Engine-added operator (no reference counterpart): take n rows per
stratum, chosen by a deterministic integer mixing key so the result is
reproducible run-to-run AND SQL-expressible (the driver oracle ranks by
the same `(id * 2654435761) % 2^32` Knuth multiplicative hash).

Scale shape: each batch PRE-PRUNES to its local n-smallest keys per
stratum inside map_batches, so the single all-to-all moves at most
n × strata × blocks rows instead of the corpus; the per-stratum final
pick is a tiny vectorized partial sort. No row-wise Python anywhere.
"""

from __future__ import annotations

import numpy as np

_KNUTH = 2654435761  # Knuth multiplicative-hash constant (2^32 * phi)
_MOD = 4294967296


def _mix(ids: np.ndarray) -> np.ndarray:
    """(id * 2654435761) mod 2^32 — identical in int64 SQL as long as
    id < 2^31 (no signed overflow); ids are reduced mod 2^32 first so
    the contract holds for any int64 id."""
    a = np.asarray(ids, dtype=np.int64) % _MOD
    return (a * _KNUTH) % _MOD


def stratified_sample(ds, stratum_col: str, id_col: str, n: int,
                      extra_cols: tuple = ()):
    """n rows per stratum, the ones with the smallest mixing key
    (ties -> smallest id). Returns the sampled rows with their stratum.
    """
    import pandas as pd

    need = list(dict.fromkeys([stratum_col, id_col, *extra_cols]))

    def prune(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in need})
        df["_k"] = _mix(df[id_col].to_numpy())
        df = df.sort_values(["_k", id_col], kind="stable")
        return df.groupby(stratum_col, sort=False).head(n)

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["_k", id_col], kind="stable").head(n)
        return g.drop(columns=["_k"])

    return (ds.select_columns(need)
            .map_batches(prune, batch_format="numpy")
            .groupby(stratum_col)
            .map_groups(pick, batch_format="pandas"))


def top_k_per_group(ds, group_col: str, value_col: str, id_col: str,
                    k: int, ascending: bool = False,
                    extra_cols: tuple = ()):
    """k rows per group with the largest (default) / smallest values;
    ties broken by smallest id (SQL: ROW_NUMBER() OVER (PARTITION BY g
    ORDER BY v [DESC], id) <= k).

    Scale shape: identical to stratified_sample — each batch pre-prunes
    to its local k per group inside map_batches, the single all-to-all
    moves at most k x groups x blocks rows, the final per-group pick is
    a tiny sort."""
    import pandas as pd

    need = list(dict.fromkeys([group_col, value_col, id_col,
                               *extra_cols]))

    def order(df):
        return df.sort_values(
            [value_col, id_col], kind="stable",
            ascending=[ascending, True])

    def prune(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in need})
        return order(df).groupby(group_col, sort=False).head(k)

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        return order(group).head(k)

    return (ds.select_columns(need)
            .map_batches(prune, batch_format="numpy")
            .groupby(group_col)
            .map_groups(pick, batch_format="pandas"))


def hash_split_stats(ds, id_col: str, group_col: str, weight_col: str,
                     n_splits: int = 10, split_names=None,
                     batch_size: int = 8192):
    """Deterministic train/val/test split assignment + per-(group,
    split) stats: split = knuth_hash(id) % n_splits, mapped through
    `split_names` (a list of n_splits labels; default
    8/1/1 train/val/test). The assignment is a pure function of the
    id — stable across runs, machines and re-shards, which is the
    property a split must have.

    One stateless pass ships only (group, split, n, weight-sum)
    partials; a small combine groupby finishes. Mirrorable in SQL via
    the same `(id * 2654435761) % 2^32 % n_splits` arithmetic.
    """
    import pandas as pd

    if split_names is None:
        split_names = ["train"] * 8 + ["val", "test"]
    assert len(split_names) == n_splits
    names = np.asarray(split_names, dtype=object)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        s = (_mix(ids) % n_splits).astype(np.int64)
        g = pd.DataFrame({
            group_col: df[group_col].to_numpy(),
            "split": names[s],
            "_w": df[weight_col].to_numpy(np.int64)})
        agg = g.groupby([group_col, "split"], sort=False).agg(
            n=("_w", "size"), w=("_w", "sum")).reset_index()
        agg["n"] = agg["n"].astype(np.int64)
        agg["w"] = agg["w"].astype(np.int64)
        return agg

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: [g[group_col].iloc[0]],
            "split": [g["split"].iloc[0]],
            "n": [np.int64(g["n"].sum())],
            "w": [np.int64(g["w"].sum())]})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
    return parts.groupby([group_col, "split"]).map_groups(
        combine, batch_format="pandas")


def priority_sample(ds, weight_col: str, id_col: str, n: int,
                    extra_cols: tuple = ()):
    """Weighted sample WITHOUT replacement by priority sampling
    (Duffield-Lund-Thorup 2007): priority q_i = w_i / u_i with u_i
    uniform on (0,1]; the n highest priorities are the sample.
    Here u_i = (knuth_mix(id)+1) / 2^32 and q is evaluated as the
    INTEGER (w << 32) // (mix+1), so ranking (and a SQL oracle) is
    bit-exact — weights must stay below 2^20 for the product to fit
    int64. Ties break by id ascending.

    Scale shape: every block prunes to its local top-n before the
    single all-to-all; the final pick sorts n x blocks rows. Returns
    (id, weight, q) rows plus extra_cols."""
    import pandas as pd

    need = list(dict.fromkeys([id_col, weight_col, *extra_cols]))

    def _q(ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        u = (ids.astype(np.uint64) % np.uint64(_MOD)
             * np.uint64(_KNUTH)) % np.uint64(_MOD) + np.uint64(1)
        assert int(w.max(initial=0)) < (1 << 20), \
            "weight * 2^32 must fit int64"
        return ((w.astype(np.uint64) << np.uint64(32)) // u) \
            .astype(np.int64)

    def prune(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in need})
        ids = df[id_col].to_numpy(np.int64)
        df["q"] = _q(ids, df[weight_col].to_numpy(np.int64))
        top = df.nlargest(n, ["q"], keep="all")
        # keep="all" then exact cut with the id tie-break
        top = top.sort_values(["q", id_col],
                              ascending=[False, True],
                              kind="mergesort").head(n)
        top["_one"] = np.zeros(len(top), dtype=np.int8)
        return top

    def final(group: "pd.DataFrame") -> "pd.DataFrame":
        out = group.sort_values(["q", id_col],
                                ascending=[False, True],
                                kind="mergesort").head(n)
        return out.drop(columns=["_one"])

    return (ds.map_batches(prune, batch_format="pandas",
                           batch_size=65536)
            .groupby("_one").map_groups(final, batch_format="pandas"))


def stratified_priority_sample(ds, stratum_col: str, weight_col: str,
                               id_col: str, n: int):
    """Weighted sample without replacement PER STRATUM: the
    priority-sampling rule of :func:`priority_sample` (integer
    q = (w << 32) // (knuth_mix(id)+1), ties by id) applied within
    each stratum — the per-domain weighted quota pass of a data-mixing
    pipeline. Returns (stratum, id, weight, q) rows, n per stratum.

    Scale shape: every block prunes to its local top-n PER STRATUM,
    then one `exchange.co_partition` on the stratum co-locates whole
    strata for the exact cut — the exchange moves <= n x strata x blocks
    pre-pruned rows."""
    import pandas as pd

    from proj_ray.exchange import co_partition

    def _q(ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        u = (ids.astype(np.uint64) % np.uint64(_MOD)
             * np.uint64(_KNUTH)) % np.uint64(_MOD) + np.uint64(1)
        assert int(w.max(initial=0)) < (1 << 20), \
            "weight * 2^32 must fit int64"
        return ((w.astype(np.uint64) << np.uint64(32)) // u) \
            .astype(np.int64)

    def prune(batch):
        df = pd.DataFrame({
            stratum_col: np.asarray(batch[stratum_col]),
            id_col: np.asarray(batch[id_col]).astype(np.int64),
            weight_col: np.asarray(batch[weight_col])
            .astype(np.int64)})
        df["q"] = _q(df[id_col].to_numpy(np.int64),
                     df[weight_col].to_numpy(np.int64))
        df = df.sort_values(["q", id_col], ascending=[False, True],
                            kind="mergesort")
        return df.groupby(stratum_col, sort=False).head(n)

    def final(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values(["q", id_col], ascending=[False, True],
                              kind="mergesort")
        return g.groupby(stratum_col, sort=False).head(n)

    out = co_partition(ds.select_columns([stratum_col, weight_col, id_col])
                       .map_batches(prune, batch_format="numpy",
                                    batch_size=65536),
                       stratum_col, final).to_pandas()
    return out.sort_values([stratum_col, "q", id_col],
                           ascending=[True, False, True],
                           kind="mergesort", ignore_index=True)
