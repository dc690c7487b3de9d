"""CRS operation-planner subset (factory._plan_datum_candidates /
_similarity_candidates + epsg_ops tables; reference
coordinateoperationfactory.cpp:583, pj_get_suggested_operation
4D_api.cpp:217-346). End-to-end behavior is covered by the cs2cs yaml
replay; these pin the selection semantics directly."""

import numpy as np
import pytest


def _fwd(op, lat, lon, z=0.0):
    x, y, zz, _ = op.fwd((np.radians([lat]), np.radians([lon]),
                          np.array([z]), np.full(1, np.inf)))
    return x[0], y[0], zz[0]


@pytest.mark.requires_reference
def test_grid_candidate_preferred_when_available():
    """PD/83 -> WGS84 geocentric in Thuringia uses the BETA2007 NTv2
    grid (grids win the accuracy tie, SortFunction gridsAvailable)."""
    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs("EPSG:4746", "EPSG:4978")
    x, y, z = _fwd(op, 50.5, 10.0)
    assert x == pytest.approx(4003461.55, abs=0.02)
    assert z == pytest.approx(4898267.79, abs=0.02)


def test_helmert_fallback_when_grids_hidden(monkeypatch):
    """Same pair with grids hidden: the db Helmert chain (15867 via
    the ETRS89 hub), heights preserved by the geog2D-domain push/pop."""
    import os

    from proj_ray.factory import create_crs_to_crs

    monkeypatch.setitem(os.environ, "PROJ_RAY_SKIP_GRID_OPS", "YES")
    op = create_crs_to_crs("EPSG:4746", "EPSG:4978")
    x, y, z = _fwd(op, 50.5, 10.0)
    assert x == pytest.approx(4003461.37, abs=0.02)
    assert z == pytest.approx(4898267.94, abs=0.02)


def test_ballpark_outside_all_areas(monkeypatch):
    """A point outside every candidate area falls back to the ballpark
    null shift (NOT the legacy towgs84), mirroring the reference."""
    import os

    from proj_ray.factory import create_crs_to_crs, create_operation

    monkeypatch.setitem(os.environ, "PROJ_RAY_SKIP_GRID_OPS", "YES")
    op = create_crs_to_crs("EPSG:4746", "EPSG:4978")
    x, y, z = _fwd(op, 49.0, 2.0)  # Paris: outside the German areas
    ref = create_operation("+proj=cart +ellps=WGS84")
    bx, by, bz, _ = ref.fwd((np.radians([2.0]), np.radians([49.0]),
                             np.zeros(1), np.full(1, np.inf)))
    assert x == pytest.approx(bx[0], abs=1e-6)
    assert z == pytest.approx(bz[0], abs=1e-6)


def test_similarity_transformation_direct():
    """EPSG Guidance Note 7.2 worked example: ED50/UTM31 ->
    ETRS89/UTM31 through the similarity op EPSG:5166."""
    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs("EPSG:23031", "EPSG:25831")
    x, y, z, _ = op.fwd((np.array([300000.0]), np.array([4500000.0]),
                         np.zeros(1), np.full(1, np.inf)))
    assert x[0] == pytest.approx(299905.060, abs=0.001)
    assert y[0] == pytest.approx(4499796.515, abs=0.001)
    # inverse round-trips
    ix, iy, _, _ = op.inv((x, y, np.zeros(1), np.full(1, np.inf)))
    assert ix[0] == pytest.approx(300000.0, abs=0.001)


@pytest.mark.requires_reference
def test_per_point_regional_selection():
    """RRAF91/RGAF09 (Guadeloupe vs Martinique ops, equal accuracy):
    smallest containing area wins per point."""
    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs("EPSG:5488", "EPSG:4559+5757")
    x, y, z = _fwd(op, 16.248285304, -61.484212843, 53.073)
    assert x == pytest.approx(661991.318, abs=0.002)
    assert y == pytest.approx(1796999.201, abs=0.002)
    assert z == pytest.approx(93.846, abs=0.002)  # geoid grid applied


def test_compound_ballpark_vertical():
    """Compound CRS whose vertical grid is unshipped: horizontal
    transforms (Slovenia similarity), height passes through."""
    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs("EPSG:3912+EPSG:5779", "EPSG:3794+EPSG:8690")
    x, y, z, _ = op.fwd((np.array([477134.28]), np.array([95134.21]),
                         np.array([5.0]), np.full(1, np.inf)))
    assert x[0] == pytest.approx(476763.303, abs=0.002)
    assert y[0] == pytest.approx(95620.222, abs=0.002)
    assert z[0] == pytest.approx(5.0, abs=1e-9)


def test_grad_unit_crs():
    """EPSG:4807 coordinates are in grads (authority unit)."""
    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs("EPSG:4807", "EPSG:27572")
    # 64.44444444 grads lat, 2.9586342556 grads lon (from Paris)
    x, y, _, _ = op.fwd((np.radians([64.44444444]),
                         np.radians([2.9586342556]),
                         np.zeros(1), np.full(1, np.inf)))
    assert x[0] == pytest.approx(760724.02, abs=0.02)
    assert y[0] == pytest.approx(3457334.86, abs=0.02)


def test_crs_name_resolution_and_td_helmert():
    import numpy as np

    from proj_ray.factory import create_crs_to_crs, resolve_crs_name

    assert resolve_crs_name("WGS 84") == "EPSG:4326"
    assert resolve_crs_name("gda2020") == "EPSG:7844"
    assert resolve_crs_name("ITRF1993") == "EPSG:8993"  # century elision
    assert resolve_crs_name("WGS 84 + EGM96 height") == "EPSG:4326+5773"
    assert resolve_crs_name("no such crs name") is None

    # ITRF2005 -> ETRF2000: the generated time-dependent Helmert
    # (EPSG:7950) must move a geocentric point epoch-dependently
    op = create_crs_to_crs("EPSG:4896", "EPSG:7930")
    x = np.array([3496737.2679]); y = np.array([743254.4507])
    z = np.array([5264462.9620])
    r19 = op.fwd((x, y, z, np.array([2019.0])))
    r29 = op.fwd((x, y, z, np.array([2029.0])))
    assert abs(r19[0][0] - 3496737.7857) < 1.5e-4
    assert abs(r29[0][0] - 3496737.9401) < 1.5e-4
    assert r19[0][0] != r29[0][0]


def test_superseded_grid_op_filtered():
    """NAD27->NAD83 must plan NTv2 (op 1313), not the NTv1 op 1312 its
    EPSG remark marks replaced (reference discardSuperseded)."""
    from proj_ray.epsg_ops import SUPERSEDED

    assert 1313 in SUPERSEDED.get(1312, [])


def test_only_best_and_no_ballpark_flags():
    import pytest

    from proj_ray.factory import create_crs_to_crs
    from proj_ray.ops.gridshift import GridUnavailable

    # --only-best: EGM2008 geoid grid is not shipped -> error instead
    # of the ballpark height passthrough
    with pytest.raises(GridUnavailable):
        create_crs_to_crs("EPSG:4326+3855", "EPSG:4979",
                          only_best=True)
    # default keeps the reference's grid-missing ballpark behavior
    create_crs_to_crs("EPSG:4326+3855", "EPSG:4979")

    # --no-ballpark: unknown-datum pair with no plannable op -> error
    with pytest.raises(ValueError):
        create_crs_to_crs("+proj=longlat +ellps=airy",
                          "+proj=longlat +datum=WGS84",
                          no_ballpark=True)
    # same datum: exact conversion, never ballpark -> still builds
    create_crs_to_crs("+proj=longlat +datum=WGS84",
                      "+proj=utm +zone=31 +datum=WGS84",
                      no_ballpark=True)
