"""Bloom-filter semi-join: filter a large probe table by membership in
a (filtered) build table, shipping a fixed-size bitmap instead of
shuffling the probe side.

Engine-added operator. The reference's analogue is the grid mask /
extent pre-check in `src/grids.cpp` (a cheap broadcast membership test
that gates the expensive path); this generalizes it to key semi-joins.

Scale shape:
  build   per-block BITMAP partials (fixed `m_bits/8` bytes each,
          independent of row count). Default path pulls the partials
          straight to the driver and ORs them there — zero shuffles;
          the driver sees `n_blocks * m_bits/8` bytes (128 KiB/block at
          the default 2^20 bits — fine into the tens of thousands of
          blocks). For build sides with very many blocks pass
          `combine_ways=K` to insert one small OR-combine groupby so
          the driver only ORs K bitmaps.
  probe   bitmap broadcast once via `ray.put`; each batch tests k bits
          vectorized. Survivors (true matches + false positives) are
          then EXACTLY verified with an `exchange.co_partition` `isin`
          against the build keys, so the result is exact — the bloom
          only prunes the exchange (at fpr ~0.1%, the verify join sees
          |matches| + 0.001·|probe| rows instead of |probe|).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from proj_ray.exchange import co_partition

from ._hash import splitmix64, stable_u64

__all__ = ["bloom_build", "bloom_filter_ds", "bloom_semi_join",
           "bloom_anti_join"]

_K_SEEDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
            0x94D049BB133111EB, 0xD6E8FEB86659FD93)


def _positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via k independent splitmix streams."""
    h = stable_u64(keys)
    cols = [splitmix64(h ^ np.uint64(_K_SEEDS[i])) % np.uint64(m_bits)
            for i in range(k)]
    return np.stack(cols, axis=1).astype(np.int64)


def bloom_build(build_ds, key_col: str, m_bits: int = 1 << 20,
                k: int = 4, combine_ways: int = 0):
    """Return (bitmap_object_ref, m_bits, k). The exchange carries
    fixed-size bitmap partials only.

    combine_ways=0 (default): per-block partials are pulled to the
    driver and OR-ed there — no shuffle. combine_ways=K>0: one small
    groupby OR-combines the partials into K bitmaps first (the
    many-thousand-block scale path)."""
    import ray

    nbytes = m_bits // 8

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"_w": pd.Series([], dtype=np.int64),
                                 "_bm": pd.Series([], dtype=object)})
        keys = df[key_col].to_numpy()
        pos = _positions(keys, m_bits, k).ravel()
        bm = np.zeros(m_bits, dtype=bool)
        bm[pos] = True
        w = (int(stable_u64(keys[:1])[0] % np.uint64(combine_ways))
             if combine_ways else 0)
        return pd.DataFrame({"_w": [w], "_bm": [np.packbits(bm).tobytes()]})

    parts_ds = build_ds.map_batches(partial, batch_format="pandas",
                                    batch_size=None)
    if combine_ways:
        def or_group(g: pd.DataFrame) -> pd.DataFrame:
            acc = np.zeros(nbytes, dtype=np.uint8)
            for buf in g["_bm"]:
                acc |= np.frombuffer(buf, dtype=np.uint8)
            return pd.DataFrame({"_w": [int(g["_w"].iloc[0])],
                                 "_bm": [acc.tobytes()]})

        parts_ds = parts_ds.groupby("_w").map_groups(
            or_group, batch_format="pandas")  # <= combine_ways rows

    acc = np.zeros(nbytes, dtype=np.uint8)
    for row in parts_ds.iter_rows():
        acc |= np.frombuffer(row["_bm"], dtype=np.uint8)
    return ray.put(acc), m_bits, k


def bloom_filter_ds(probe_ds, key_col: str, bitmap_ref, m_bits: int,
                    k: int, batch_size: int = 16384):
    """Keep probe rows whose key tests positive in the bloom (exact
    matches plus ~fpr false positives)."""
    def test(df: pd.DataFrame) -> pd.DataFrame:
        import ray
        bm = np.unpackbits(ray.get(bitmap_ref)).view(bool)
        pos = _positions(df[key_col].to_numpy(), m_bits, k)
        hit = bm[pos].all(axis=1)
        return df[hit]

    return probe_ds.map_batches(test, batch_format="pandas",
                                batch_size=batch_size)


def _probe_dtypes(probe_ds) -> dict:
    """Pandas dtypes of the probe columns, from schema metadata only.

    The verify co-partition unions build-key frames (which lack the
    probe payload columns) with probe frames; Ray null-fills the
    missing columns, which silently upcasts int64 payloads to float64
    in the merged groups. The verify fns cast the surviving probe rows
    back to these dtypes so the join's output schema is independent of
    bloom parameters."""
    import pyarrow as pa

    sch = probe_ds.schema()
    return dict(pa.schema(list(zip(sch.names, sch.types)))
                .empty_table().to_pandas().dtypes)


def _verify_input(build_ds, cand, probe_key: str, build_key: str):
    """The two inputs of the verify co-partition: the build side's
    per-block DISTINCT keys (presence is all the verify needs) tagged
    `_side` 0, and the probe candidates tagged 1."""
    bkeys = build_ds.map_batches(
        lambda d: pd.DataFrame({probe_key: d[build_key].drop_duplicates(),
                                "_side": np.int64(0)}),
        batch_format="pandas")
    return [bkeys, cand.map_batches(lambda d: d.assign(_side=np.int64(1)),
                                    batch_format="pandas")]


def bloom_semi_join(probe_ds, build_ds, probe_key: str, build_key: str,
                    m_bits: int = 1 << 20, k: int = 4,
                    combine_ways: int = 0):
    """EXACT semi-join (probe rows whose key exists in build), bloom-
    pruned: only bloom survivors enter the verification co-partition.
    The whole join runs ONE all-to-all (the verify co-partition)."""
    pdt = _probe_dtypes(probe_ds)
    ref, m, kk = bloom_build(build_ds, build_key, m_bits, k,
                             combine_ways=combine_ways)
    cand = bloom_filter_ds(probe_ds, probe_key, ref, m, kk)

    keys = _verify_input(build_ds, cand, probe_key, build_key)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        build_vals = g.loc[g["_side"] == 0, probe_key].to_numpy()
        probe = g[g["_side"] == 1]
        keep = probe[probe_key].isin(build_vals)
        return probe[keep].drop(columns=["_side"]).astype(pdt)

    return co_partition(keys, probe_key, verify)


def bloom_anti_join(probe_ds, build_ds, probe_key: str, build_key: str,
                    m_bits: int = 1 << 20, k: int = 4,
                    combine_ways: int = 0):
    """EXACT anti-join: probe rows whose key does NOT exist in build.

    A bloom NEGATIVE is a certain non-member, so bloom-negative rows
    (the bulk of the anti result) resolve inside the stateless probe
    map with no exchange at all; only bloom POSITIVES — true matches
    plus ~fpr false positives, i.e. rows that are mostly NOT in the
    result — enter the verify co-partition, where the kept rows are the
    ones absent from the build keys.

    The probe dataset is planned twice (negative branch + candidate
    branch). With column-pruned parquet reads that second distributed
    scan is far cheaper at scale than the alternative of shipping the
    whole anti result (≈ the whole probe table) through the all-to-all
    just to carry the negatives alongside the candidates.
    """
    pdt = _probe_dtypes(probe_ds)
    ref, m, kk = bloom_build(build_ds, build_key, m_bits, k,
                             combine_ways=combine_ways)

    def probe_split(df: pd.DataFrame, keep_hit: bool) -> pd.DataFrame:
        import ray
        bm = np.unpackbits(ray.get(ref)).view(bool)
        pos = _positions(df[probe_key].to_numpy(), m, kk)
        hit = bm[pos].all(axis=1)
        return df[hit] if keep_hit else df[~hit]

    resolved = probe_ds.map_batches(
        lambda d: probe_split(d, keep_hit=False), batch_format="pandas")
    cand = probe_ds.map_batches(
        lambda d: probe_split(d, keep_hit=True), batch_format="pandas")

    keys = _verify_input(build_ds, cand, probe_key, build_key)

    def verify_absent(g: pd.DataFrame) -> pd.DataFrame:
        build_vals = g.loc[g["_side"] == 0, probe_key].to_numpy()
        probe = g[g["_side"] == 1]
        keep = ~probe[probe_key].isin(build_vals)
        return probe[keep].drop(columns=["_side"]).astype(pdt)

    confirmed = co_partition(keys, probe_key, verify_absent)
    return resolved.union(confirmed)
