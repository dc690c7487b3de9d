"""Replay the reference's own cs2cs CLI golden corpus
(test/cli/test_cs2cs_various.yaml, 142 cases) through create_crs_to_crs,
comparing numerically at the precision of the printed goldens.

Known divergences (all proj.db operation-planner behavior, out of
scope for the static registry by design):
- NAD27 paths (tests 1, 122, 123): the datum grids are not shipped;
  modern cs2cs falls back to a db-selected ballpark/alternate op.
- EPSG:4807 (test 7): NTF(Paris) authority unit is grad; the registry
  expresses angular CRSs in degrees.
Round 3: the static operation-planner subset (proj_ray/epsg_ops.py +
factory._plan_datum_candidates / _similarity_candidates) clears the
round-2 divergences 1, 7, 92, 122, 123, 128-136 — db-selected grid /
Helmert / similarity candidates with per-point area-of-use ranking,
ballpark fallback, geog2D-domain height semantics and grad-unit CRSs.

Round 3 (cont.): test 57 resolved — create_crs_to_crs now uses the
linearized Position Vector helmert for towgs84 legs (createOperation
semantics, transformation.cpp:585) while raw pipelines keep the 4D-API
"helmert exact" sandwich (4D_api.cpp:941), so both the cs2cs goldens
and the gigs 1000-rep roundtrips agree with the reference.
"""

import pytest

KNOWN_DIVERGENT = set()


@pytest.mark.requires_reference
def test_cs2cs_various_goldens():
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_cs2cs_yaml import run

    npass, nfail, nskip = run()
    # round-3 close: 141/142 replayed (the 1 skip is test 120, whose
    # expectation depends on NADCON5 ranking over a grid this
    # environment legitimately ships an alternative for)
    assert npass >= 141, (npass, nfail, nskip)
    assert nfail == 0, (npass, nfail)


def test_missing_target_crs_defaults_to_geog_base():
    """cs2cs with a single (projected) CRS transforms to/from its
    geographic base (cs2cs.cpp:832; yaml tests 55/56)."""
    import numpy as np

    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs(
        "+proj=ob_tran +o_proj=moll +a=6378137 +es=0 +o_lon_p=0 "
        "+o_lat_p=0 +lon_0=180", None)
    assert op.angular_output and not op.angular_input
    x = np.array([300000.0, 20000000.0])
    y = np.array([400000.0, 30000000.0])
    z = np.zeros(2)
    t = np.full(2, np.inf)
    rx, ry, _, _ = op.fwd((x, y, z, t))
    lon, lat = np.degrees(rx[0]), np.degrees(ry[0])
    assert abs(lon - -(42 + 45 / 60 + 22.377 / 3600)) < 1e-3
    assert abs(lat - (85 + 35 / 60 + 28.083 / 3600)) < 1e-3
    assert not np.isfinite(rx[1])  # out-of-range inverse -> inf
    # a geographic-only source cannot supply a base
    import pytest

    with pytest.raises(ValueError):
        create_crs_to_crs("+proj=longlat +datum=WGS84", None)


def test_all_optional_grids_missing_is_noop():
    """'@'-optional grids that are all missing make the gridshift a
    pass-through, not an error (vgridshift.cpp:68-71; yaml test 127)."""
    import numpy as np

    from proj_ray.factory import create_crs_to_crs

    op = create_crs_to_crs(
        "+proj=longlat +datum=WGS84 +units=m "
        "+geoidgrids=@i_dont_exist.tif +vunits=m +no_defs +type=crs",
        "EPSG:4979")
    x = np.radians(np.array([2.0]))
    y = np.radians(np.array([49.0]))
    rx, ry, rz, _ = op.fwd((x, y, np.zeros(1), np.full(1, np.inf)))
    # EPSG:4979 is lat-first: (49, 2, 0)
    assert abs(np.degrees(rx[0]) - 49.0) < 1e-9
    assert abs(np.degrees(ry[0]) - 2.0) < 1e-9
    assert abs(rz[0]) < 1e-9


def test_iau_2015_registry():
    """IAU_2015 planetary CRSs resolve from the generated registry
    (iau.sql); Mars south-polar stereographic maps the pole to the
    origin (yaml test 84)."""
    import numpy as np

    from proj_ray.factory import create_crs_to_crs, create_operation

    op = create_crs_to_crs("+proj=longlat +R=3376200", "IAU_2015:49935")
    rx, ry, _, _ = op.fwd((np.radians(np.array([0.0])),
                           np.radians(np.array([-90.0])),
                           np.zeros(1), np.full(1, np.inf)))
    assert abs(rx[0]) < 1e-6 and abs(ry[0]) < 1e-6
    # ocentric geographic CRS round-trip through a projected sibling:
    # Mars sphere eqc (IAU_2015:49910-series conversions share lon_0=0)
    from proj_ray.epsg import resolve_iau

    defn = resolve_iau(49900)
    assert "+a=3396190" in defn
    ops = create_operation(
        "+proj=pipeline +step +inv " + resolve_iau(49935).replace(
            " +axis=enu", "") + " +step " + resolve_iau(49935).replace(
            " +axis=enu", ""))
    x = np.array([1000.0]); y = np.array([2000.0])
    rx, ry, _, _ = ops.fwd((x, y, np.zeros(1), np.full(1, np.inf)))
    assert abs(rx[0] - 1000.0) < 1e-6 and abs(ry[0] - 2000.0) < 1e-6


@pytest.mark.requires_reference
def test_cs2cs_ntv2_goldens():
    """NTv2 subgrid selection/switching + NTv1/CTable fallback over the
    reference's shipped test grids — all 5 runnable cases exact."""
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_cs2cs_yaml import run

    npass, nfail, _ = run(
        yaml_path="/root/reference/test/cli/test_cs2cs_ntv2.yaml")
    assert nfail == 0, (npass, nfail)
    assert npass >= 5


@pytest.mark.requires_reference
def test_cs2cs_datumfile_goldens():
    """NTv1/CTable datum files, incl. the quoted 'dir with space'
    +nadgrids value, and the --bbox/--area area-of-interest tests:
    candidates must CONTAIN the AOI (STRICT_CONTAINMENT), no ballpark,
    out-of-candidate points inf. 12/12 replayed."""
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_cs2cs_yaml import run

    npass, nfail, nskip = run(
        yaml_path="/root/reference/test/cli/test_cs2cs_datumfile.yaml")
    assert (npass, nfail, nskip) == (12, 0, 0), (npass, nfail, nskip)


@pytest.mark.requires_reference
def test_proj_nad27_nad83_spcs_goldens():
    """The reference's 1990s SPCS conformance corpus (test27/test83 via
    +init=nad27:/nad83: state-plane init files): 484 golden points over
    tmerc/lcc/omerc zones in US-survey feet, all exact at 0.001 ft."""
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_proj_yaml import run

    for f, want in (("test_proj_nad27.yaml", 262),
                    ("test_proj_nad83.yaml", 222)):
        npass, nfail, _ = run(f"/root/reference/test/cli/{f}")
        assert nfail == 0, (f, npass, nfail)
        assert npass >= want, (f, npass)


@pytest.mark.requires_reference
def test_cs2cs_ignf_goldens():
    """The reference's IGNF-authority corpus (test_cs2cs_ignf.yaml,
    34 cases): +init=IGNF:CODE resolution from the generated ignf.sql
    registry, NTF(Paris) datum planning via the PM_EQUIV Greenwich
    alias, out-of-area fallback to the first ranked gridless op
    (Tunisia points through the NTF->WGS84 concatenated chain), and
    the geocentric RGR92->REUN47 full-XYZ helmert."""
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_cs2cs_yaml import run

    npass, nfail, nskip = run(
        yaml_path="/root/reference/test/cli/test_cs2cs_ignf.yaml")
    assert (npass, nfail, nskip) == (34, 0, 0), (npass, nfail, nskip)


@pytest.mark.requires_reference
def test_proj_invproj_cli_goldens():
    """test_proj.yaml (GH-1782 ob_tran +to_meter hack, proj -S factor
    blocks on EPSG / non-Greenwich-pm / compound CRSs) and
    test_invproj.yaml, all replayed with 0 skips."""
    import sys

    sys.path.insert(0, "/root/repo")
    from tools.replay_proj_yaml import run

    for f, want in (("test_proj.yaml", 4), ("test_invproj.yaml", 1)):
        npass, nfail, nskip = run(f"/root/reference/test/cli/{f}")
        assert (npass, nfail, nskip) == (want, 0, 0), (f, npass, nfail)
