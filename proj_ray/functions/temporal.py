"""Temporal join/window operators over Ray Data datasets.

Engine-added operators (no reference counterpart — OSGeo PROJ has no
tabular layer): the time-ordered joins a large-scale event/training
pipeline needs, expressed Ray-Data-first.

- asof_join: for each left row, the single right row with the latest
  right_ts <= left_ts (backward; forward = earliest >=) sharing the
  join key. Deterministic tie rule so a SQL oracle can reproduce it:
  among equal boundary timestamps backward picks the LARGEST tie_col,
  forward the SMALLEST.
- window_aggregate: tumbling-window partial aggregation; the window
  start is integer-floor arithmetic on epoch microseconds so SQL
  reproduces it exactly.

Scale shape: asof_join broadcasts the right side once via ray.put when
it is small (the dimension-table case — zero shuffles, each batch
binary-searches per key), and otherwise runs ONE co-partitioned
all-to-all (tag + union + groupby(key) merge). window_aggregate
pre-aggregates inside map_batches so the shuffle moves only
(window, by) partials.
"""

from __future__ import annotations

import numpy as np

from proj_ray.dsutil import merged
from proj_ray.exchange import N_BUCKETS, co_partition


def _ts_us(arr) -> np.ndarray:
    """Timestamps/ints -> int64 epoch microseconds."""
    a = np.asarray(arr)
    if np.issubdtype(a.dtype, np.datetime64):
        return a.astype("datetime64[us]").astype(np.int64)
    return a.astype(np.int64)


def _merge_asof_arrays(lt, rt, r_order, direction):
    """Vectorized as-of probe: rt sorted ascending (ties broken by
    tie_col via r_order pre-sort); returns right indices per left row
    (-1 = no match)."""
    if direction == "backward":
        idx = np.searchsorted(rt, lt, side="right") - 1
    elif direction == "forward":
        idx = np.searchsorted(rt, lt, side="left")
        idx[idx >= len(rt)] = -1
    else:
        raise ValueError(f"asof_join: unknown direction {direction!r}")
    return np.where(idx >= 0, r_order[np.maximum(idx, 0)], -1)


def asof_join(left, right, left_key: str, right_key: str,
              left_ts: str, right_ts: str,
              right_cols: tuple = (), tie_col: str | None = None,
              direction: str = "backward"):
    """Inner as-of join: each left row pairs with the right row having
    the latest right_ts <= left_ts (backward) / earliest >= (forward)
    for the same key; unmatched left rows are dropped.

    Tie rule (needed for oracle determinism): among right rows sharing
    the boundary timestamp, backward picks the one with the LARGEST
    tie_col, forward the SMALLEST (tie_col defaults to the first of
    right_cols, which should be a unique id).

    The right side's needed columns run once, through
    `dsutil.driver_table`: at most `dsutil.BROADCAST_ROWS` rows
    broadcast as per-key sorted slices that each left batch probes;
    above it both sides meet in one all-to-all on the key.
    """
    import pandas as pd
    import ray

    from proj_ray import dsutil

    tie = tie_col or (right_cols[0] if right_cols else right_key)
    need = list(dict.fromkeys([right_key, right_ts, tie, *right_cols]))

    def right_rows(batch):
        return {c: np.asarray(batch[c]) for c in need}

    right, rp = dsutil.driver_table(
        right.map_batches(right_rows, batch_format="numpy"),
        dsutil.BROADCAST_ROWS)
    if rp is not None:
        rts = _ts_us(rp[right_ts].to_numpy())
        rtie = rp[tie].to_numpy()
        order = np.lexsort((rtie, rts, rp[right_key].to_numpy()))
        rp = rp.iloc[order].reset_index(drop=True)
        rts = rts[order]
        keys = rp[right_key].to_numpy()
        # per-key contiguous slices
        cut = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        slices = {int(keys[c]): (c, (cut[i + 1] if i + 1 < len(cut)
                                     else len(keys)))
                  for i, c in enumerate(cut)}
        side = ray.put((slices, rts,
                        {c: rp[c].to_numpy() for c in need}))

        def probe(batch):
            slc, rts_, cols = ray.get(side)
            lk = np.asarray(batch[left_key])
            lt = _ts_us(batch[left_ts])
            out_idx = np.full(len(lk), -1, dtype=np.int64)
            for k in np.unique(lk):
                seg = slc.get(int(k))
                if seg is None:
                    continue
                lo, hi = seg
                m = lk == k
                loc = _merge_asof_arrays(
                    lt[m], rts_[lo:hi],
                    np.arange(lo, hi, dtype=np.int64), direction)
                out_idx[m] = loc
            keep = out_idx >= 0
            res = {c: np.asarray(batch[c])[keep] for c in batch}
            for c in right_cols:
                res[c] = cols[c][out_idx[keep]]
            return res

        return left.map_batches(probe, batch_format="numpy")

    # distributed: tag both sides, one all-to-all on the key, merge
    # inside each key group
    lcols = [c for c in left.schema().names]

    def tag_left(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in batch})
        df["_side"] = np.int8(0)
        df["_k"] = np.asarray(batch[left_key])
        df["_t"] = _ts_us(batch[left_ts])
        return df

    def tag_right(batch):
        df = pd.DataFrame({c: np.asarray(batch[c]) for c in need})
        df["_side"] = np.int8(1)
        df["_k"] = np.asarray(batch[right_key])
        df["_t"] = _ts_us(batch[right_ts])
        return df

    def merge(group):
        lg = group[group["_side"] == 0]
        rg = group[group["_side"] == 1]
        empty = {c: np.array([]) for c in lcols + list(right_cols)}
        if len(lg) == 0 or len(rg) == 0:
            return pd.DataFrame(empty)
        rg = rg.sort_values(["_t", tie], kind="stable")
        idx = _merge_asof_arrays(
            lg["_t"].to_numpy(), rg["_t"].to_numpy(),
            np.arange(len(rg), dtype=np.int64), direction)
        keep = idx >= 0
        res = {c: lg[c].to_numpy()[keep] for c in lcols}
        for c in right_cols:
            res[c] = rg[c].to_numpy()[idx[keep]]
        return pd.DataFrame(res)

    tagged = (left.map_batches(tag_left, batch_format="numpy")
              .union(right.map_batches(tag_right, batch_format="numpy")))
    return tagged.groupby("_k").map_groups(merge, batch_format="pandas")


def window_aggregate(ds, ts_col: str, value_col: str,
                     every_us: int, by: str | None = None,
                     scale: int = 10_000):
    """Tumbling-window sum+count: window_start (int64 epoch us) =
    floor(ts / every) * every. The value is fixed-point scaled before
    the sum (matching the suite's other money/value aggregations) so
    the result is integer-exact and SQL-reproducible. Partials are
    combined inside map_batches; the all-to-all moves only
    (window[, by]) partial rows."""
    from ray.data.aggregate import Sum

    keys = ["window_start"] + ([by] if by else [])

    def partial(batch):
        import pandas as pd

        t = _ts_us(batch[ts_col])
        w = (t // every_us) * every_us
        df = pd.DataFrame({
            "window_start": w,
            "v_c": np.rint(np.asarray(batch[value_col]) * scale
                           ).astype(np.int64),
        })
        if by:
            df[by] = np.asarray(batch[by])
        g = df.groupby(keys, sort=False, as_index=False).agg(
            v_sum=("v_c", "sum"), n=("v_c", "size"))
        g["n"] = g["n"].astype(np.int64)
        return g

    agg = (ds.map_batches(partial, batch_format="numpy")
           .groupby(keys)
           .aggregate(Sum("v_sum", alias_name="v_total"),
                      Sum("n", alias_name="n_rows")))

    def final(batch):
        import pandas as pd

        df = pd.DataFrame({k: np.asarray(batch[k]) for k in keys})
        df["sum_value"] = np.asarray(batch["v_total"]) / scale
        df["n"] = np.asarray(batch["n_rows"]).astype(np.int64)
        return df

    return agg.map_batches(final, batch_format="numpy")


def sessionize(ds, key_col: str, ts_col: str, gap_us: int,
               id_col: str, extra_cols: tuple = ()):
    """Gap-based sessionization: per key, events sorted by (ts, id) are
    split into sessions wherever the gap to the previous event exceeds
    `gap_us`; emits session_seq (1-based per-key session number) and
    event_seq (1-based position within the session).

    Shape: ONE `exchange.co_partition` on the key (a hash bucket of
    the key, not the key itself — Ray's map_groups invokes the UDF
    once per group, and per-user groups made a 100 k-row / 1,500-user
    pass take 16-22 s; 64 bucket groups with an in-bucket vectorized
    multi-key segment pass take ~2 s). Each bucket sorts by (key, ts,
    id) and numbers ALL its keys' sessions in one numpy pass; keys
    never split across buckets so semantics are exact.

    Deterministic tie rule (SQL-reproducible): equal timestamps order
    by id ascending.
    """
    import pandas as pd

    def split(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, id_col], kind="stable")
        t = _ts_us(g[ts_col].to_numpy())
        k = g[key_col].to_numpy()
        n = len(g)
        new = np.ones(n, dtype=np.int64)
        if n > 1:
            same_key = k[1:] == k[:-1]
            new[1:] = np.where(same_key & (np.diff(t) <= gap_us), 0, 1)
        key_start = np.ones(n, dtype=bool)
        if n > 1:
            key_start[1:] = ~same_key
        idx = np.arange(n, dtype=np.int64)
        # per-key session number: global cumsum of session starts,
        # rebased at each key's first row
        glob = np.cumsum(new)
        kbase = np.maximum.accumulate(np.where(key_start, glob - 1, 0))
        # per-session event number: index rebased at session starts
        sstart = np.maximum.accumulate(np.where(new == 1, idx, 0))
        out = {id_col: g[id_col].to_numpy(),
               key_col: k,
               "session_seq": glob - kbase,
               "event_seq": idx - sstart + 1}
        for c in extra_cols:
            out[c] = g[c].to_numpy()
        return pd.DataFrame(out)

    need = list(dict.fromkeys([key_col, ts_col, id_col, *extra_cols]))
    return co_partition(merged(ds, need), key_col, split)


def rolling_window(ds, key_col: str, ts_col: str, value_col: str,
                   id_col: str, preceding: int = 3,
                   scale: int = 100):
    """Per-key rolling aggregate: for each row (ordered by ts, id
    within key) the SUM and COUNT of `value_col` over the current row
    plus up to `preceding` prior rows — SQL's ROWS BETWEEN `preceding`
    PRECEDING AND CURRENT ROW.

    Values are scaled to int64 (`round(v * scale)`) so distributed and
    single-threaded sums agree exactly. Same shape as `sessionize`:
    ONE co-partition on the key, then one vectorized
    segment pass per bucket (prefix sums with per-key rebasing —
    window sum = cs[i] - cs[i - 1 - min(pos_in_key, preceding)]); keys
    never split across buckets so the window semantics are exact.
    """
    import pandas as pd

    need = list(dict.fromkeys([key_col, ts_col, value_col, id_col]))

    def roll(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, id_col], kind="stable")
        k = g[key_col].to_numpy()
        v = np.rint(np.asarray(g[value_col], dtype=np.float64)
                    * scale).astype(np.int64)
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        key_start = np.ones(n, dtype=bool)
        if n > 1:
            key_start[1:] = k[1:] != k[:-1]
        seg_start = np.maximum.accumulate(np.where(key_start, idx, 0))
        pos = idx - seg_start
        look = np.minimum(pos, preceding)
        cs0 = np.concatenate(([0], np.cumsum(v)))
        win_sum = cs0[idx + 1] - cs0[idx - look]
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "win_sum_c": win_sum,
            "win_n": look + 1,
        })

    return co_partition(merged(ds, need), key_col, roll)


def track_length(ds, key_col: str, order_col: str,
                 lon_col: str = "lon", lat_col: str = "lat"):
    """Per-key great-circle track length: order each key's points by
    `order_col`, sum spherical haversine leg distances (R=6371000)
    between consecutive points. Each leg is rounded to 0.1 mm int64
    BEFORE the sum so distributed and SQL sums agree exactly.

    Same shape as `sessionize`: one co-partition on the key, then a
    vectorized multi-key segment pass per bucket (keys never split
    across buckets). Returns (key, track_tmm, n_legs).
    """
    import pandas as pd

    need = [key_col, order_col, lon_col, lat_col]
    R = 6371000.0

    def legs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        lam = np.radians(np.asarray(g[lon_col], dtype=np.float64))
        phi = np.radians(np.asarray(g[lat_col], dtype=np.float64))
        n = len(g)
        if n < 2:
            return pd.DataFrame({key_col: k[:0], "track_tmm":
                                 np.empty(0, np.int64),
                                 "n_legs": np.empty(0, np.int64)})
        same = k[1:] == k[:-1]
        dphi = phi[1:] - phi[:-1]
        dlam = lam[1:] - lam[:-1]
        sp = np.sin(dphi / 2.0)
        sl = np.sin(dlam / 2.0)
        a = sp * sp + np.cos(phi[:-1]) * np.cos(phi[1:]) * sl * sl
        d = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
        tmm = np.rint(d * 10000.0).astype(np.int64)
        out = pd.DataFrame({key_col: k[1:][same],
                            "d": tmm[same]})
        g2 = out.groupby(key_col, as_index=False).agg(
            track_tmm=("d", "sum"), n_legs=("d", "size"))
        g2["track_tmm"] = g2["track_tmm"].astype(np.int64)
        g2["n_legs"] = g2["n_legs"].astype(np.int64)
        return g2

    return co_partition(merged(ds, need), key_col, legs)


def track_densify(ds, key_col: str, order_col: str,
                  lon_col: str = "lon", lat_col: str = "lat",
                  k: int = 3, scale: int = 10_000_000):
    """Great-circle track densification: every consecutive leg of each
    key's ordered track EXPANDS into k interior points by spherical
    linear interpolation — the flat-map expansion shape (n rows in,
    ~n*k out), with the same one-bucket-shuffle plan as track_length
    (keys never split across buckets; the slerp is one vectorized pass
    over all legs in the bucket).

    Fixed-point contract (SQL-oracle-exact): the slerp mirrors the
    oracle op-for-op — unit vectors from radians, dot clamped to
    [-1, 1], theta = acos(dot), weights sin((1-t)*theta)/sin(theta)
    with t = j/(k+1) (exact binary for k=3), asin/atan2 back to
    degrees, floor(deg*scale + 0.5) int64 on both sides. Degenerate
    legs (sin(theta) < 1e-12: coincident or antipodal points) emit the
    leg start. Returns (key, leg, j, lon_f, lat_f) where leg is the
    start point's order value.
    """
    import pandas as pd

    need = [key_col, order_col, lon_col, lat_col]

    def expand(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, order_col], kind="stable")
        kcol = g[key_col].to_numpy()
        order = np.asarray(g[order_col])
        lam = np.radians(np.asarray(g[lon_col], dtype=np.float64))
        phi = np.radians(np.asarray(g[lat_col], dtype=np.float64))
        n = len(g)
        empty = pd.DataFrame({
            key_col: kcol[:0], "leg": order[:0],
            "j": np.empty(0, np.int64),
            "lon_f": np.empty(0, np.int64),
            "lat_f": np.empty(0, np.int64)})
        if n < 2:
            return empty
        same = kcol[1:] == kcol[:-1]
        if not same.any():
            return empty
        cp = np.cos(phi)
        x = cp * np.cos(lam)
        y = cp * np.sin(lam)
        z = np.sin(phi)
        x0, y0, z0 = x[:-1][same], y[:-1][same], z[:-1][same]
        x1, y1, z1 = x[1:][same], y[1:][same], z[1:][same]
        dot = np.clip(x0 * x1 + y0 * y1 + z0 * z1, -1.0, 1.0)
        theta = np.arccos(dot)
        st = np.sin(theta)
        degen = st < 1e-12
        st_safe = np.where(degen, 1.0, st)
        keys = kcol[1:][same]
        legs = order[:-1][same]
        lon0 = np.degrees(np.arctan2(y0, x0))
        lat0 = np.degrees(np.arcsin(np.clip(z0, -1.0, 1.0)))
        outs = []
        for j in range(1, k + 1):
            t = j / (k + 1.0)
            a = np.sin((1.0 - t) * theta) / st_safe
            b = np.sin(t * theta) / st_safe
            xe = a * x0 + b * x1
            ye = a * y0 + b * y1
            ze = a * z0 + b * z1
            norm = np.sqrt(xe * xe + ye * ye + ze * ze)
            lon = np.degrees(np.arctan2(ye, xe))
            lat = np.degrees(np.arcsin(np.clip(ze / norm, -1.0, 1.0)))
            lon = np.where(degen, lon0, lon)
            lat = np.where(degen, lat0, lat)
            outs.append(pd.DataFrame({
                key_col: keys,
                "leg": legs,
                "j": np.full(len(keys), j, dtype=np.int64),
                "lon_f": np.floor(lon * float(scale) + 0.5)
                .astype(np.int64),
                "lat_f": np.floor(lat * float(scale) + 0.5)
                .astype(np.int64)}))
        return pd.concat(outs, ignore_index=True)

    return co_partition(merged(ds, need), key_col, expand)


def resample_ffill(ds, key_col: str, ts_col: str, value_col: str,
                   bucket_us: int = 86_400_000_000, scale: int = 100,
                   batch_size: int = 8192):
    """Regular-grid resample with forward fill (the time-series
    gap-fill primitive): per key, one row per `bucket_us` bucket from
    the key's first to last event, carrying

      n, sum_c            this bucket's event count and fixed-point
                          value sum (floor(v*scale + 0.5) per event —
                          the repo's half-up convention)
      filled_n, filled_sum_c
                          the most recent NON-EMPTY bucket's (n, sum_c)
                          at or before this one (carrying the pair
                          instead of a mean keeps everything integer —
                          no division, no float drift)

    Scale shape: a stateless pre-aggregation map ships only per-block
    (key, bucket, n, sum_c) partials; ONE co-partition on the key
    combines partials, materializes each key's bucket range and
    forward-fills it vectorized (pandas reindex + ffill). Grid size is
    bounded by the time span / bucket_us per key, independent of event
    count."""
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = _ts_us(df[ts_col])
        c = np.floor(df[value_col].to_numpy(np.float64) * scale
                     + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "_k": df[key_col].to_numpy(),
            "_b": t // np.int64(bucket_us),
            "_c": c,
        }).groupby(["_k", "_b"], sort=False).agg(
            n=("_c", "size"), sum_c=("_c", "sum")).reset_index()
        g["n"] = g["n"].astype(np.int64)
        g["sum_c"] = g["sum_c"].astype(np.int64)
        return g

    def fill(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("_b", sort=True).agg(
            n=("n", "sum"), sum_c=("sum_c", "sum"))
        full = np.arange(int(agg.index.min()), int(agg.index.max()) + 1,
                         dtype=np.int64)
        r = agg.reindex(full)
        n = r["n"].fillna(0).to_numpy(np.int64)
        sum_c = r["sum_c"].fillna(0).to_numpy(np.int64)
        nonempty = n > 0
        src = pd.DataFrame({
            "fn": np.where(nonempty, n, np.int64(0)),
            "fs": np.where(nonempty, sum_c, np.int64(0))})
        src[~nonempty] = np.nan
        f = src.ffill()
        return pd.DataFrame({
            key_col: np.repeat(group["_k"].iloc[0], len(full)),
            "bucket": full,
            "n": n,
            "sum_c": sum_c,
            "filled_n": f["fn"].to_numpy(np.int64),
            "filled_sum_c": f["fs"].to_numpy(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
    return parts.groupby("_k").map_groups(fill, batch_format="pandas")


def latest_by_key(ds, key_col: str, ts_col: str, order_cols=(),
                  batch_size: int = 8192):
    """CDC / upsert compaction: the single most recent row per key,
    ordered by (ts, *order_cols) with the last tuple winning.

    Per-block partial argmax first — only one candidate row per key
    per block crosses the exchange — then a per-key combine applies
    the identical rule, so the result is blocking-invariant.
    """
    import pandas as pd

    sort_cols = [ts_col, *order_cols]

    def pick_last(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values([key_col] + sort_cols, kind="stable")
        return d.groupby(key_col, sort=False).tail(1)

    parts = ds.map_batches(pick_last, batch_format="pandas",
                           batch_size=batch_size)
    return parts.groupby(key_col).map_groups(pick_last,
                                             batch_format="pandas")


def funnel_counts(ds, stages, user_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type",
                  batch_size: int = 65536):
    """Ordered funnel analysis (first-match semantics): for each user,
    stage k matches the EARLIEST event of stages[k] strictly after the
    user's stage-(k-1) match. Returns one row of exact counters:
    n_users (distinct users seen), n_<s1>, n_<s1>_<s2>, ... (users
    reaching each stage prefix), and sum_convert_us (total
    first-stage -> last-stage latency in integer microseconds over
    completing users) — all integers, so the SQL oracle (chained
    min-over-filtered-join CTEs + epoch_us) is bit-exact.

    Scale shape: events are pre-filtered to the stage types at the
    map (column- and row-pruned), then ONE `exchange.co_partition`
    on the user; the per-bucket pass is pandas-C groupby
    mins and merges, emitting one counter row per bucket that the
    driver sums. Order never matters within the exchange — matching
    is by timestamps, not arrival order."""
    import pandas as pd

    stages = list(stages)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return df[df[type_col].isin(stages)][[user_col, type_col, ts_col]]

    def bucket_funnel(g: pd.DataFrame) -> pd.DataFrame:
        counts = {}
        counts["n_users_part"] = np.int64(g[user_col].nunique())
        cur = (g[g[type_col] == stages[0]]
               .groupby(user_col)[ts_col].min())
        first = cur
        counts["c0_part"] = np.int64(len(cur))
        for i, st in enumerate(stages[1:], 1):
            e = (g[g[type_col] == st][[user_col, ts_col]]
                 .merge(cur.rename("_prev"), left_on=user_col,
                        right_index=True))
            e = e[e[ts_col] > e["_prev"]]
            cur = e.groupby(user_col)[ts_col].min()
            counts[f"c{i}_part"] = np.int64(len(cur))
        done = cur
        if len(done):
            lat = (done.to_numpy("datetime64[us]").astype(np.int64)
                   - first.loc[done.index].to_numpy("datetime64[us]")
                   .astype(np.int64))
            counts["sum_convert_us_part"] = np.int64(lat.sum())
        else:
            counts["sum_convert_us_part"] = np.int64(0)
        return pd.DataFrame({k: [v] for k, v in counts.items()})

    parts = co_partition(ds.map_batches(prune, batch_format="pandas",
                                        batch_size=batch_size),
                         user_col, bucket_funnel).to_pandas()
    out = {"n_users": np.int64(parts["n_users_part"].sum())}
    name = ""
    for i, st in enumerate(stages):
        name = f"{name}_{st}" if name else st
        out[f"n_{name}"] = np.int64(parts[f"c{i}_part"].sum())
    out["sum_convert_us"] = np.int64(parts["sum_convert_us_part"].sum())
    return pd.DataFrame({k: [v] for k, v in out.items()})


def retention_cohorts(ds, user_col: str = "user_id",
                      ts_col: str = "ts", max_offset: int = 5,
                      period_us: int | None = None,
                      batch_size: int = 65536):
    """Cohort retention matrix: cohort = the period index of each
    user's first event — calendar month (year*12 + month) by default,
    or fixed-width epoch periods (epoch_us // period_us, e.g. days)
    when `period_us` is given; for every offset 0..max_offset, the
    number of distinct cohort users active in cohort period + offset.
    All integer arithmetic, bit-exact against the SQL oracle
    (distinct user-periods -> min -> offset counts).

    Scale shape: events prune to (user, month) per batch (per-batch
    dedup shrinks the exchange to <= one row per user-month per
    batch), ONE `exchange.co_partition` on the user, and the
    per-bucket pass emits (cohort, offset, count) partials over the
    bounded months x offsets domain that the driver sums."""
    import pandas as pd

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        ts = pd.to_datetime(df[ts_col])
        if period_us is None:
            mon = (ts.dt.year * 12 + ts.dt.month).to_numpy(np.int64)
        else:
            mon = (ts.to_numpy("datetime64[us]").astype(np.int64)
                   // period_us)
        u = df[user_col].to_numpy(np.int64)
        return pd.DataFrame({"u": u, "mon": mon}).drop_duplicates()

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["u", "mon"])
        m0 = d.groupby("u")["mon"].transform("min")
        off = d["mon"].to_numpy(np.int64) - m0.to_numpy(np.int64)
        keep = off <= max_offset
        out = pd.DataFrame({"cohort_mon": m0.to_numpy(np.int64)[keep],
                            "off": off[keep]})
        # distinct users per (cohort, off) within the bucket: (u, mon)
        # rows are already distinct, so each row IS one user-offset
        return (out.groupby(["cohort_mon", "off"], as_index=False)
                .size().rename(columns={"size": "n_part"}))

    parts = co_partition(ds.map_batches(prune, batch_format="pandas",
                                        batch_size=batch_size),
                         "u", bucket_counts).to_pandas()
    out = (parts.groupby(["cohort_mon", "off"], as_index=False)
           ["n_part"].sum().rename(columns={"n_part": "n_users"}))
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return (out.sort_values(["cohort_mon", "off"])
            .reset_index(drop=True))


def snapshot_diff(ds, key_col: str, ts_col: str, value_col: str,
                  cut1, cut2, order_cols=(), scale: int = 100,
                  batch_size: int = 65536):
    """CDC snapshot diff: compare the latest-per-key state (same
    ordering rule as latest_by_key: max (ts, *order_cols) tuple wins)
    at two cut timestamps over an append-only stream. Returns one row
    of exact counters — n_keys_t1, n_keys_t2, n_added (keys born
    between the cuts), n_changed / n_unchanged (surviving keys whose
    fixed-point value did / did not change). Values compare as
    floor(v*scale + 0.5) int64, the repo's half-up convention, so the
    SQL oracle (two QUALIFY row_number()=1 snapshots + a left join)
    is bit-exact.

    Scale shape: rows prune to ts <= cut2 and project to
    (key, sort-tuple, quantized value) at the map; ONE
    `exchange.co_partition` on the key; each bucket computes both
    snapshots with sort + groupby-tail and emits one counter row."""
    import pandas as pd

    t1 = np.datetime64(cut1, "us")
    t2 = np.datetime64(cut2, "us")
    sort_cols = [ts_col, *order_cols]

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        ts = df[ts_col].to_numpy("datetime64[us]")
        keep = ts <= t2
        d = df[keep][[key_col, *sort_cols]].copy()
        d["_v"] = np.floor(
            df[value_col].to_numpy(np.float64)[keep] * scale
            + 0.5).astype(np.int64)
        return d

    def bucket_diff(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values([key_col] + sort_cols, kind="stable")
        ts = d[ts_col].to_numpy("datetime64[us]")
        s1 = (d[ts <= t1].groupby(key_col, sort=False).tail(1)
              .set_index(key_col)["_v"])
        s2 = (d.groupby(key_col, sort=False).tail(1)
              .set_index(key_col)["_v"])
        j = s2.to_frame("v2").join(s1.to_frame("v1"), how="left")
        added = j["v1"].isna()
        changed = (~added) & (j["v1"] != j["v2"])
        return pd.DataFrame({
            "n_keys_t1": [np.int64(len(s1))],
            "n_keys_t2": [np.int64(len(s2))],
            "n_added": [np.int64(added.sum())],
            "n_changed": [np.int64(changed.sum())],
            "n_unchanged": [np.int64((~added & ~changed).sum())]})

    parts = co_partition(ds.map_batches(prune, batch_format="pandas",
                                        batch_size=batch_size),
                         key_col, bucket_diff).to_pandas()
    out = parts.sum()
    return pd.DataFrame({c: [np.int64(out[c])] for c in
                         ["n_keys_t1", "n_keys_t2", "n_added",
                          "n_changed", "n_unchanged"]})


def scd2_versions(ds, key_col: str, ts_col: str, state_col: str,
                  order_col: str):
    """Slowly-changing-dimension (type 2) version extraction: per key,
    rows ordered by (ts, order_col) collapse into VERSIONS — a new
    version starts at the first row and wherever `state_col` differs
    from the previous row of the same key. Emits one row per version:
    (key, ver_no 1-based, state, ts_from).

    The interval-ize counterpart of snapshot_diff/latest-per-key: it
    turns an append-only change log into the dimension-history table a
    lakehouse MERGE maintains.

    Shape: ONE co-partition on the key (sessionize's rule —
    keys never split across buckets; per-bucket multi-key vectorized
    segment pass, no per-key Python)."""
    import pandas as pd

    need = [key_col, ts_col, state_col, order_col]

    def versions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key_col, ts_col, order_col],
                              kind="stable")
        k = g[key_col].to_numpy()
        s = g[state_col].to_numpy()
        n = len(g)
        new = np.ones(n, dtype=bool)
        if n > 1:
            new[1:] = (k[1:] != k[:-1]) | (s[1:] != s[:-1])
        key_start = np.ones(n, dtype=bool)
        if n > 1:
            key_start[1:] = k[1:] != k[:-1]
        # version number: cumulative count of starts, rebased per key
        cum = np.cumsum(new)
        base = np.maximum.accumulate(np.where(key_start, cum - 1, 0))
        out = g.loc[new, [key_col, ts_col, state_col]].copy()
        out["ver_no"] = (cum - base)[new]
        out = out.rename(columns={ts_col: "ts_from",
                                  state_col: "state"})
        out["ver_no"] = out["ver_no"].astype(np.int64)
        return out[[key_col, "ver_no", "state", "ts_from"]]

    return co_partition(ds.select_columns(need), key_col, versions)


def watermark_lateness(ds, order_col: str, ts_col: str, group_col: str,
                       late_us: int):
    """Streaming-style late-event accounting over a stored stream: the
    WATERMARK at arrival position i is max(ts) over all rows arriving
    at or before i (`order_col` is the arrival order); an event is
    LATE when watermark - ts > late_us. Returns pandas
    (group_col, n_events, n_late, max_late_us).

    Distributed prefix-max (the q85 prefix-sum shape with max):
    arrival positions split into `exchange.N_BUCKETS` ranges by
    order_col // span, a per-block partial pass ships one (range,
    max_ts) row per range touched, the driver scans the carry vector
    (exclusive cumulative max), and ONE `exchange.co_partition` on the
    range sorts each range by arrival, applies carry + running max,
    and emits per-group partials."""
    import pandas as pd

    # bounds pass: per-block partials -> driver max (no shuffle)
    def bounds(b: dict) -> dict:
        e = np.asarray(b[order_col], dtype=np.int64)
        return {"mx": np.array([e.max() if len(e) else -1], np.int64)}

    mx = int(ds.map_batches(bounds, batch_format="numpy")
             .to_pandas()["mx"].max())
    n_ranges = N_BUCKETS
    span = max((mx + n_ranges) // n_ranges, 1)

    # carry pass: per-block per-range max ts -> driver exclusive
    # cumulative max across ranges
    def carry_partial(b: dict) -> pd.DataFrame:
        e = np.asarray(b[order_col], dtype=np.int64)
        t = _ts_us(np.asarray(b[ts_col]))
        bk = e // span
        g = pd.DataFrame({"bk": bk, "t": t}).groupby(
            "bk", as_index=False)["t"].max()
        return g

    parts = ds.map_batches(carry_partial,
                           batch_format="numpy").to_pandas()
    bmax = np.full(n_ranges, np.iinfo(np.int64).min, dtype=np.int64)
    agg = parts.groupby("bk")["t"].max()
    bmax[agg.index.to_numpy(np.int64)] = agg.to_numpy(np.int64)
    carry = np.maximum.accumulate(
        np.r_[np.iinfo(np.int64).min, bmax[:-1]])

    def tag(b: dict) -> pd.DataFrame:
        e = np.asarray(b[order_col], dtype=np.int64)
        return pd.DataFrame({
            order_col: e,
            "_t": _ts_us(np.asarray(b[ts_col])),
            group_col: np.asarray(b[group_col]),
            "_rng": e // span})

    def late_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col, kind="stable")
        t = g["_t"].to_numpy(np.int64)
        # a bucket may hold several ranges, each contiguous in arrival
        # order: restart the running max at each with its carry
        rng = g["_rng"].to_numpy(np.int64)
        cuts = np.flatnonzero(np.r_[True, rng[1:] != rng[:-1], True])
        wm = np.concatenate([
            np.maximum.accumulate(np.r_[carry[rng[a]], t[a:z]])[1:]
            for a, z in zip(cuts[:-1], cuts[1:])])
        lateness = wm - t
        out = pd.DataFrame({group_col: g[group_col].to_numpy(),
                            "_late": (lateness > late_us),
                            "_lat": lateness})
        s = out.groupby(group_col, sort=False).agg(
            n_events=("_lat", "size"), n_late=("_late", "sum"),
            max_late_us=("_lat", "max")).reset_index()
        return s

    parts2 = co_partition(ds.map_batches(tag, batch_format="numpy"),
                          "_rng", late_stats).to_pandas()
    out = parts2.groupby(group_col, sort=True).agg(
        n_events=("n_events", "sum"), n_late=("n_late", "sum"),
        max_late_us=("max_late_us", "max")).reset_index()
    for c in ("n_events", "n_late", "max_late_us"):
        out[c] = out[c].astype(np.int64)
    return out


def staypoints(ds, key_col: str, ts_col: str,
               x_col: str = "x", y_col: str = "y",
               r2: int = 100_000_000, min_run: int = 5,
               tie_col: str | None = None):
    """Stay-point detection over integer-quantized trajectories (the
    Li et al. 2008 GeoLife primitive, restated as gaps-and-islands so
    it is windowed-SQL-exact): order each key's pings by (`ts_col`,
    original row order) and segment at every consecutive step whose
    squared planar displacement dx*dx + dy*dy exceeds `r2` (positions
    are int64 micro-degree-style units, so the comparison is exact); a
    stay-point is a maximal segment of >= `min_run` pings. `tie_col`
    (unique within a key) pins the order of equal timestamps — without
    it, ts ties would make the segmentation block-order-dependent.

    Returns (key, n_points, n_stays, longest_run) per key.

    Scale shape: one `exchange.co_partition` on the key (the
    sessionize plan); inside a bucket the multi-key segment pass
    is one vectorized diff + boundary cumsum + bincount — no per-key
    Python. Pings ship once; nothing is re-sorted globally.
    """
    import pandas as pd

    need = [key_col, ts_col, x_col, y_col] + \
        ([tie_col] if tie_col else [])
    order = [key_col, ts_col] + ([tie_col] if tie_col else [])

    def runs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order, kind="stable")
        k = g[key_col].to_numpy()
        x = g[x_col].to_numpy(np.int64)
        y = g[y_col].to_numpy(np.int64)
        n = len(g)
        if n == 0:
            return pd.DataFrame({key_col: k[:0],
                                 "n_points": np.empty(0, np.int64),
                                 "n_stays": np.empty(0, np.int64),
                                 "longest_run": np.empty(0, np.int64)})
        dx = np.diff(x)
        dy = np.diff(y)
        # a NEW segment starts at row 0 of each key and wherever the
        # step from the previous ping moved farther than r2
        brk = np.r_[True, (k[1:] != k[:-1])
                    | (dx * dx + dy * dy > np.int64(r2))]
        seg = np.cumsum(brk) - 1
        seg_len = np.bincount(seg)
        seg_key = k[brk]
        df = pd.DataFrame({key_col: seg_key, "_len": seg_len})
        out = df.groupby(key_col, as_index=False).agg(
            n_points=("_len", "sum"),
            n_stays=("_len", lambda s: int((s >= min_run).sum())),
            longest_run=("_len", "max"))
        for c in ("n_points", "n_stays", "longest_run"):
            out[c] = out[c].astype(np.int64)
        return out

    return co_partition(merged(ds, need), key_col, runs)
