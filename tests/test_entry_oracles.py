"""Guards for the unrolled-SQL oracles in __ray_entry__."""
import numpy as np


def test_q17_newton_unroll_margin():
    """The q17 SQL oracle unrolls the inverse's Newton loop to a fixed
    8 iterations with converged-lane freezing; that equals numpy's
    masked loop only if every lane converges within the unroll. Assert
    the driver data (doc geotags, 500 rows, identical at every sf)
    converges with >= 2 iterations of slack."""
    from proj_ray.geodesic import WGS84_GEOD as G

    i = np.arange(500, dtype=np.int64)
    lon2 = (i * 61803 % 360000) / 1000.0 - 180.0
    lat2 = np.clip((i * 75487 % 170000) / 1000.0 - 85.0, -89.9, 89.9)

    # mirror inverse() setup (point 1 = (0,0)) and count iterations
    f1 = G.f1
    lon12 = (lon2 + 180) % 360 - 180
    l12a = np.abs(lon12)
    phi2 = np.radians(lat2)
    sb = f1 * np.sin(phi2)
    cb = np.cos(phi2)
    n = np.hypot(sb, cb)
    sbet2, cbet2 = sb / n, cb / n
    swapp = 0.0 < np.abs(sbet2)
    sb1 = np.where(swapp, sbet2, 0.0)
    cb1 = np.where(swapp, cbet2, 1.0)
    sb2 = np.where(swapp, 0.0, sbet2)
    cb2 = np.where(swapp, 1.0, cbet2)
    latsign = np.where(sb1 <= 0, 1.0, -1.0)
    sb1, sb2 = sb1 * latsign, sb2 * latsign
    lam12 = np.radians(l12a)
    sl, cl = np.sin(lam12), np.cos(lam12)
    salp1 = cb2 * sl
    calp1 = sb2 * cb1 - cb2 * sb1 * cl
    nz = np.hypot(salp1, calp1)
    nz = np.where(nz == 0, 1.0, nz)
    salp1, calp1 = salp1 / nz, calp1 / nz
    anti = (lam12 > np.pi * (1 - 3 * G.f)) & (np.abs(sb1 + sb2) < 0.1)
    salp1 = np.where(anti & (salp1 < 1e-6), 1e-3, salp1)
    calp1 = np.where(anti, -np.sqrt(np.maximum(1 - salp1**2, 0.0)), calp1)

    active = np.ones_like(lam12, dtype=bool)
    worst = -1
    for it in range(50):
        v, dv, *_ = G._lambda12(sb1, cb1, sb2, cb2, salp1, calp1, lam12)
        conv = np.abs(v) < 1e-13
        if (active & conv).any():
            worst = it
        active &= ~conv
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            dalp1 = np.where(np.abs(dv) > 1e-16, -v / dv,
                             np.where(v > 0, -0.1, 0.1))
        dalp1 = np.clip(dalp1, -0.5, 0.5)
        alp1 = np.arctan2(salp1, calp1) + np.where(active, dalp1, 0.0)
        alp1 = np.clip(alp1, 1e-12, np.pi - 1e-12)
        salp1, calp1 = np.sin(alp1), np.cos(alp1)
    assert not active.any(), "a lane failed to converge in 50 iterations"
    assert worst <= 8 - 1 - 2, f"unroll margin too small: worst={worst}"


def test_q17_sql_generates():
    import __ray_entry__ as E

    sql = E._gen_q17_sql()
    assert "i8_" in sql and "LASTCTE" not in sql
    # reserved words must not appear as bare aliases
    assert " AS anti," not in sql and " AS inner," not in sql


def test_q52_join_fallback_matches_broadcast(ray_session, monkeypatch):
    """Above dsutil.BROADCAST_ROWS the customer/supplier/orders lookups
    must switch from driver broadcasts to hash-shuffle joins; drive
    the cap to 0 so every fallback runs, and assert the result equals
    the broadcast path (both oracle-checked by the driver gate)."""
    import __ray_entry__ as E
    from proj_ray import dsutil

    sf = "/root/testdata/sf0.001"
    broad = E._q52_revenue_by_nation(sf).reset_index(drop=True)
    monkeypatch.setattr(dsutil, "BROADCAST_ROWS", 0)
    joined = E._q52_revenue_by_nation(sf).reset_index(drop=True)
    assert broad.equals(joined)
    assert len(broad) >= 1


def test_q37_q71_distributed_route_matches_default(ray_session,
                                                   monkeypatch):
    """q37 (range join) and q71 (rectangle overlay) take their
    broadcast route by default, and that route is what
    tools/check_queries.py holds to the DuckDB oracle. With
    dsutil.BROADCAST_ROWS below 0 they take the bucketed all-to-all
    (q37) and the PBSM co-partition (q71) instead, which must give the
    same frame."""
    import pandas as pd

    import __ray_entry__ as E
    from proj_ray import dsutil

    def run(q):
        out = q("/root/testdata/sf0.001")
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for q in (E._q37_range_join, E._q71_overlay_area):
        default = run(q)
        with monkeypatch.context() as m:
            m.setattr(dsutil, "BROADCAST_ROWS", -1)
            distributed = run(q)
        assert len(default) >= 1, q.__name__
        pd.testing.assert_frame_equal(default, distributed)


def test_q210_q211_reject_event_types_missing_from_broadcast(
        ray_session, tmp_path):
    """A row whose event_type has no entry in the broadcast table (here
    a null type, which the histogram pass's groupby drops) must fail
    with a ValueError naming the type, not read uninitialised memory."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    import __ray_entry__ as E

    pq.write_table(pa.table({
        "event_type": ["click", None, "view", "click"],
        "value": [1.0, 2.0, 3.0, 4.0]}), tmp_path / "events.parquet")
    for q in (E._q210_winsorized, E._q211_mad):
        # Ray wraps the task's ValueError; its message carries the cause
        with pytest.raises(Exception,
                           match="ValueError: event_type None has no"):
            q(str(tmp_path))
