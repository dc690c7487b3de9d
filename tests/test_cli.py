"""CLI line filters (batch-vectorized counterparts of src/apps/proj.cpp,
cs2cs.cpp, geod.cpp)."""

import io
import subprocess
import sys

import pytest


def run_cli(args, stdin_text):
    out = subprocess.run(
        [sys.executable, "-m", "proj_ray.cli", *args],
        input=stdin_text, capture_output=True, text=True,
        cwd="/root/repo")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def test_proj_filter_utm():
    lines = run_cli(["proj", "+proj=utm", "+zone=32", "+ellps=GRS80",
                     "-d", "4"], "12 55\n12d30'E 55d30'N\n200 95 junk\n")
    x, y, _ = lines[0].replace("\t", " ").split()[:3]
    assert float(x) == pytest.approx(691875.6321, abs=1e-3)
    assert float(y) == pytest.approx(6098907.8250, abs=1e-3)
    assert lines[2].startswith("*")          # invalid lat -> error line
    assert lines[2].endswith("junk")         # remainder echoed


def test_proj_inverse():
    lines = run_cli(["proj", "+proj=utm", "+zone=32", "+ellps=GRS80",
                     "-I", "-d", "7"], "691875.6321 6098907.8250\n")
    lon, lat = lines[0].replace("\t", " ").split()[:2]
    assert float(lon) == pytest.approx(12.0, abs=1e-6)
    assert float(lat) == pytest.approx(55.0, abs=1e-6)


def test_cs2cs_epsg_codes():
    # EPSG:4326 authority order: lat lon input, like real cs2cs
    lines = run_cli(["cs2cs", "EPSG:4326", "EPSG:25832"], "55 12\n")
    x, y = lines[0].replace("\t", " ").split()[:2]
    assert float(x) == pytest.approx(691875.632, abs=1e-2)
    assert float(y) == pytest.approx(6098907.825, abs=1e-2)


def test_geod_inverse_and_polygon():
    lines = run_cli(["geod"], "0 0 0 1\n")
    azi1, azi2, s12 = (float(v) for v in lines[0].split())
    assert azi1 == pytest.approx(90.0, abs=1e-6)
    assert s12 == pytest.approx(111319.491, abs=0.01)  # 1 deg on equator
    lines = run_cli(["geod", "-p"], "89 0\n89 90\n89 180\n89 270\n")
    per, area = (float(v) for v in lines[0].split())
    assert per == pytest.approx(631819.8745, abs=0.01)
    assert area == pytest.approx(24952305678.0, abs=10)


@pytest.mark.requires_reference
def test_gie_subcommand():
    lines = run_cli(["gie", "/root/reference/test/gie/axisswap.gie"], "")
    assert "0 fail" in lines[0]


_ = io
