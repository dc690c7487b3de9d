"""Range (interval) join over Ray Data datasets.

Engine-added operator (no reference counterpart — OSGeo PROJ has no
tabular layer): join each left row whose `value_col` falls inside a
right-side interval [lo_col, hi_col) — the validity-interval /
price-bracket / version-range join a training-data pipeline needs next
to `asof_join` (proj_ray/functions/temporal.py).

Scale shape
-----------
- Small right side (the dimension-interval case): the intervals are
  indexed ONCE into an elementary-segment CSR structure and broadcast
  via ray.put (read in every task, never re-shipped per batch). Each
  streaming batch probes with two np.searchsorted calls + one CSR
  gather — fully vectorized, multi-match (a point inside k overlapping
  intervals emits k pairs), no Python loop over rows.
- Large right side: ONE co-partitioned all-to-all. Both sides are
  bucketed on the value domain (left rows to floor(v/w), intervals
  replicated into every bucket they overlap), then a groupby(bucket)
  merge builds a local segment index per bucket. Each left row lives
  in exactly one bucket so no pair is emitted twice. The partitioning
  assumption: interval span / bucket_width bounds the replication
  factor — pick bucket_width at or above the typical interval span.

Boundary semantics are half-open ([lo, hi)) so a SQL oracle reproduces
the operator exactly: `ON v >= lo AND v < hi`.
"""

from __future__ import annotations

import numpy as np


class _SegmentIndex:
    """Elementary-segment decomposition of a set of half-open
    intervals: the sorted unique endpoints split the line into
    segments, each holding (CSR) the ids of the intervals covering it.
    Probe cost per point: one searchsorted + one gather of its
    segment's interval list. Build cost: O(sum of per-interval segment
    spans) — bounded at broadcast scale, and per-bucket at scale."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        ok = hi > lo  # empty/inverted intervals match nothing
        self.ids = np.flatnonzero(ok)
        lo, hi = lo[ok], hi[ok]
        e = np.unique(np.concatenate([lo, hi]))
        self.e = e
        nseg = max(len(e) - 1, 0)
        s0 = np.searchsorted(e, lo, side="left")
        s1 = np.searchsorted(e, hi, side="left")
        spans = s1 - s0
        total = int(spans.sum())
        # (segment, interval) pairs, CSR-compacted by segment
        seg = np.repeat(s0, spans) + _intra_group_arange(spans)
        itv = np.repeat(np.arange(len(lo), dtype=np.int64), spans)
        order = np.argsort(seg, kind="stable")
        seg = seg[order]
        self.data = itv[order]  # row index into the (filtered) side
        self.indptr = np.zeros(nseg + 1, dtype=np.int64)
        np.add.at(self.indptr, seg + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        assert self.indptr[-1] == total

    def probe(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """-> (left row positions, interval positions) of every match;
        a point in k intervals appears k times."""
        v = np.asarray(v, dtype=np.float64)
        if len(self.e) < 2 or len(v) == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z
        pos = np.searchsorted(self.e, v, side="right") - 1
        inside = (pos >= 0) & (pos < len(self.e) - 1)
        pidx = np.flatnonzero(inside)
        pos = pos[inside]
        lens = self.indptr[pos + 1] - self.indptr[pos]
        lrow = np.repeat(pidx, lens)
        starts = np.repeat(self.indptr[pos], lens)
        take = starts + _intra_group_arange(lens)
        return lrow, self.ids[self.data[take]]


def _intra_group_arange(lens: np.ndarray) -> np.ndarray:
    """[0..l0), [0..l1), ... concatenated, vectorized:
    arange(total) minus each element's group offset."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)


def range_join(left, right, value_col: str, lo_col: str, hi_col: str,
               right_cols: tuple = (), key_col: str | None = None,
               left_key: str | None = None,
               bucket_width: float | None = None):
    """Inner range join: every (left row, right interval) pair with
    lo <= value < hi, optionally also requiring key equality
    (left[left_key] == right[key_col]). Multi-match: overlapping
    intervals each emit a pair. Unmatched left rows are dropped.

    The right side's needed columns run once, through
    `dsutil.driver_table`: at most `dsutil.BROADCAST_ROWS` intervals
    broadcast as a segment index that each left batch probes; above
    it both sides meet in one all-to-all on value buckets
    `bucket_width` wide, so a right side that large needs one.
    """
    import pandas as pd
    import ray

    from proj_ray import dsutil

    need = list(dict.fromkeys(
        [lo_col, hi_col, *(() if key_col is None else (key_col,)),
         *right_cols]))
    lkey = left_key or key_col

    def right_rows(batch):
        return {c: np.asarray(batch[c]) for c in need}

    right, rp = dsutil.driver_table(
        right.map_batches(right_rows, batch_format="numpy"),
        dsutil.BROADCAST_ROWS)
    if rp is not None:
        cols = {c: rp[c].to_numpy() for c in need}
        if key_col is None:
            index = {None: _SegmentIndex(cols[lo_col], cols[hi_col])}
        else:
            index = {}
            ks = cols[key_col]
            for k in np.unique(ks):
                m = np.flatnonzero(ks == k)
                idx = _SegmentIndex(cols[lo_col][m], cols[hi_col][m])
                idx.ids = m[idx.ids]  # back to side-wide row positions
                index[k] = idx
        side = ray.put((index, cols))

        def probe(batch):
            index_, cols_ = ray.get(side)
            v = np.asarray(batch[value_col])
            if key_col is None:
                lrow, rrow = index_[None].probe(v)
            else:
                lk = np.asarray(batch[lkey])
                parts_l, parts_r = [], []
                for k in np.unique(lk):
                    idx = index_.get(k)
                    if idx is None:
                        continue
                    m = np.flatnonzero(lk == k)
                    lr, rr = idx.probe(v[m])
                    parts_l.append(m[lr])
                    parts_r.append(rr)
                lrow = (np.concatenate(parts_l) if parts_l
                        else np.empty(0, np.int64))
                rrow = (np.concatenate(parts_r) if parts_r
                        else np.empty(0, np.int64))
            res = {c: np.asarray(batch[c])[lrow] for c in batch}
            for c in right_cols:
                res[c] = cols_[c][rrow]
            return res

        return left.map_batches(probe, batch_format="numpy")

    # distributed: bucket the value domain; left rows go to one bucket,
    # intervals to every bucket they overlap — one all-to-all total.
    if bucket_width is None or bucket_width <= 0:
        raise ValueError("range_join: a large right side needs an "
                         "explicit bucket_width (>= typical interval "
                         "span keeps replication bounded)")
    w = float(bucket_width)
    lcols = [c for c in left.schema().names]

    def tag_left(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in batch})
        df["_side"] = np.int8(0)
        df["_b"] = np.floor(
            np.asarray(batch[value_col], dtype=np.float64) / w
        ).astype(np.int64)
        return df

    def tag_right(batch):
        lo = np.asarray(batch[lo_col], dtype=np.float64)
        hi = np.asarray(batch[hi_col], dtype=np.float64)
        ok = hi > lo
        b0 = np.floor(lo / w).astype(np.int64)
        # hi exclusive: a bucket is touched iff lo < (b+1)w and hi > bw
        b1 = np.ceil(hi / w).astype(np.int64) - 1
        b1 = np.maximum(b1, b0)
        reps = np.where(ok, b1 - b0 + 1, 0)
        rows = np.repeat(np.flatnonzero(ok), reps[ok])
        df = pd.DataFrame({c: np.asarray(batch[c])[rows] for c in need})
        df["_side"] = np.int8(1)
        df["_b"] = np.repeat(b0[ok], reps[ok]) \
            + _intra_group_arange(reps[ok])
        return df

    def merge(group):
        lg = group[group["_side"] == 0]
        rg = group[group["_side"] == 1]
        empty = {c: np.array([]) for c in lcols + list(right_cols)}
        if len(lg) == 0 or len(rg) == 0:
            return pd.DataFrame(empty)
        if key_col is None:
            idx = _SegmentIndex(rg[lo_col].to_numpy(),
                                rg[hi_col].to_numpy())
            lrow, rrow = idx.probe(lg[value_col].to_numpy())
        else:
            ks = rg[key_col].to_numpy()
            lk = lg[lkey].to_numpy()
            v = lg[value_col].to_numpy()
            parts_l, parts_r = [], []
            for k in np.unique(lk):
                m_r = np.flatnonzero(ks == k)
                if len(m_r) == 0:
                    continue
                idx = _SegmentIndex(rg[lo_col].to_numpy()[m_r],
                                    rg[hi_col].to_numpy()[m_r])
                m_l = np.flatnonzero(lk == k)
                lr, rr = idx.probe(v[m_l])
                parts_l.append(m_l[lr])
                parts_r.append(m_r[rr])
            lrow = (np.concatenate(parts_l) if parts_l
                    else np.empty(0, np.int64))
            rrow = (np.concatenate(parts_r) if parts_r
                    else np.empty(0, np.int64))
        res = {c: lg[c].to_numpy()[lrow] for c in lcols}
        for c in right_cols:
            res[c] = rg[c].to_numpy()[rrow]
        return pd.DataFrame(res)

    tagged = (left.map_batches(tag_left, batch_format="numpy")
              .union(right.map_batches(tag_right, batch_format="numpy")))
    return tagged.groupby("_b").map_groups(merge, batch_format="pandas")
