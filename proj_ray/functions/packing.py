"""Training-sequence packing: concatenate documents in id order and
chunk into fixed-length token sequences (the "concat-and-chunk" prep
used for LLM pretraining batches).

Engine-added operator (no reference counterpart; the closest analogue
is the reference's pipeline stage chaining in
`src/pipeline.cpp` — a strictly ordered composition).

Scale shape — a distributed prefix sum:
  pass 1  docs -> coarse id ranges; per-range token SUMS only cross
          the wire (one tiny co-partition over one row per range and
          block).
  driver  cumulative sum of the per-range sums -> range start
          offsets (one entry per range, broadcast).
  pass 2  one `exchange.co_partition` on the range id; inside each
          bucket the docs sort locally by id, take their range's
          offset + local cumsum, and emit (seq_id, doc) overlap rows.
  pass 3  per-sequence aggregation of the overlap rows (seq_id is
          dense -> bounded groupby).
Only (bucket, sum) partials and (seq, doc-span) rows shuffle; the text
never moves after tokenization.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from proj_ray.exchange import co_partition

__all__ = ["pack_sequences"]


def pack_sequences(ds, id_col: str, text_col: str, seq_len: int,
                   bucket_size: int = 1 << 14, batch_size: int = 8192):
    """Return one row per training sequence: seq_id, n_docs (documents
    overlapping the sequence), min_doc, max_doc, n_tokens (fill).

    Token count = whitespace tokens (chars - spaces-removed + 1 for
    non-empty text), matching the engine's `simple_token_count` and the
    SQL `length(t) - length(replace(t,' ','')) + 1`. Zero-token
    (empty) documents occupy no sequence and are dropped.
    """
    from .text import simple_token_count

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        t = simple_token_count(df[text_col]).astype(np.int64)
        keep = t > 0
        ids, t = ids[keep], t[keep]
        return pd.DataFrame({
            "_doc": ids, "_tok": t, "_rng": ids // bucket_size})

    tok = ds.map_batches(toks, batch_format="pandas",
                         batch_size=batch_size)

    # pass 1: per-range token sums (tiny — one row per range per block
    # before the combine, one row per range after)
    def range_sums(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("_rng", as_index=False)["_tok"].sum()
        return pd.DataFrame({"_rng": g["_rng"].to_numpy(np.int64),
                             "_tok": g["_tok"].to_numpy(np.int64)})

    sums = co_partition(
        tok.map_batches(range_sums, batch_format="pandas"), "_rng",
        range_sums).to_pandas()  # one row per range — driver-small
    sums = sums.sort_values("_rng").reset_index(drop=True)
    offsets = np.concatenate(
        [[0], np.cumsum(sums["_tok"].to_numpy(np.int64))[:-1]])
    off_map = dict(zip(sums["_rng"].tolist(), offsets.tolist()))

    # pass 2: co-partition on the range; local sort + offset; emit one
    # row per (sequence, doc) overlap. A doc of t tokens overlaps at
    # most t // seq_len + 1 sequences, so the fan-out is bounded by the
    # token count, not quadratic.
    def emit(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("_doc")  # ranges are contiguous in _doc
        docs = g["_doc"].to_numpy(np.int64)
        t = g["_tok"].to_numpy(np.int64)
        rng = g["_rng"].to_numpy(np.int64)
        new = np.r_[True, rng[1:] != rng[:-1]]
        seg = np.cumsum(new) - 1
        cs = np.cumsum(t)
        base = np.array([off_map[r] for r in rng[new].tolist()],
                        dtype=np.int64) - (cs - t)[new]
        end = base[seg] + cs
        start = end - t
        s0 = start // seq_len
        s1 = (end - 1) // seq_len
        span = (s1 - s0 + 1)
        seq = np.repeat(s0, span) + _ranges(span)
        doc_r = np.repeat(docs, span)
        # tokens this doc contributes to each overlapped sequence
        lo = np.maximum(np.repeat(start, span), seq * seq_len)
        hi = np.minimum(np.repeat(end, span), (seq + 1) * seq_len)
        return pd.DataFrame({"seq_id": seq, "_doc": doc_r,
                             "_fill": hi - lo})

    overlaps = co_partition(tok, "_rng", emit)

    def seq_agg(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "seq_id": [np.int64(g["seq_id"].iloc[0])],
            "n_docs": [np.int64(len(g))],
            "min_doc": [np.int64(g["_doc"].min())],
            "max_doc": [np.int64(g["_doc"].max())],
            "n_tokens": [np.int64(g["_fill"].sum())],
        })

    return overlaps.groupby("seq_id").map_groups(
        seq_agg, batch_format="pandas")


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[3,2] -> [0,1,2,0,1]: per-segment aranges, vectorized."""
    if len(counts) == 0:
        return np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    starts = np.cumsum(counts)[:-1]
    out[starts] = 1 - counts[:-1]
    return np.cumsum(out)
