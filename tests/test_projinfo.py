"""projinfo exact-text regression: replay the reference's
test_projinfo.yaml and pin the pass floor (84/84 byte-exact as of
round 4; failures and skips are itemized missing-feature classes,
never wrong silent output on the passing set)."""
import subprocess
import sys

import pytest


@pytest.mark.requires_reference
def test_projinfo_yaml_floor():
    out = subprocess.run(
        [sys.executable, "tools/replay_projinfo_yaml.py"],
        capture_output=True, text=True, cwd="/root/repo", timeout=600)
    line = [ln for ln in out.stdout.splitlines()
            if ln.startswith("projinfo yaml:")][0]
    # "projinfo yaml: P pass / F fail / S skip of 84"
    parts = line.split()
    npass, nfail = int(parts[2]), int(parts[5])
    assert npass == 84, line
    assert nfail == 0, line


def test_projinfo_crs_exact_4326():
    from proj_ray.projinfo_text import run_projinfo

    out, code = run_projinfo(["-o", "WKT1_GDAL", "EPSG:4326"])
    assert code == 0
    assert out.startswith('WKT1:GDAL string:\nGEOGCS["WGS 84",')
    assert 'AUTHORITY["EPSG","4326"]' in out


def test_projinfo_operation_search_utm():
    from proj_ray.projinfo_text import run_projinfo

    out, code = run_projinfo(["-s", "EPSG:4326", "-t", "EPSG:32631",
                              "--single-line"])
    assert code == 0
    assert "Candidate operations found: 1" in out
    assert "+proj=utm +zone=31 +ellps=WGS84" in out
    assert 'CONVERSION["UTM zone 31N"' in out
