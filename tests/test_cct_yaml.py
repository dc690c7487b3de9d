"""Replay the reference's cct CLI golden corpus
(test/cli/test_cct.yaml) through `python -m proj_ray.cli cct`,
comparing stdout exactly (the reference's run_cli_test.py contract)."""

import os
import subprocess
import sys

import pytest
import yaml

YAML = "/root/reference/test/cli/test_cct.yaml"

pytestmark = pytest.mark.requires_reference


def _cases():
    if not os.path.exists(YAML):
        return [pytest.param(None, id="corpus_absent")]
    d = yaml.safe_load(open(YAML))
    out = []
    for i, t in enumerate(d["tests"]):
        out.append(pytest.param(t, id=f"cct{i}_{t.get('comment', '')[:30]}"
                                .strip("_").replace(" ", "_")))
    return out


@pytest.mark.parametrize("case", _cases())
def test_cct_case(case, tmp_path):
    args = case.get("args", "")
    argv = args if isinstance(args, list) else str(args).split()
    files = case.get("file")
    if files is not None:
        if isinstance(files, dict):
            files = [files]
        for f in files:
            (tmp_path / f["name"]).write_text(f["content"],
                                              encoding="utf-8")
    p = subprocess.run(
        [sys.executable, "-m", "proj_ray.cli", "cct", *map(str, argv)],
        input=str(case.get("in", "")), capture_output=True, text=True,
        cwd=tmp_path, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": "/root/repo"})
    if "exitcode" in case:
        assert p.returncode == case["exitcode"], p.stderr
    if "stderr" in case:
        # the reference substitutes the exe name; match the message tail
        want = case["stderr"].replace("cct: ", "")
        assert want in p.stderr, p.stderr
        return
    assert p.returncode == 0, p.stderr
    got = [ln.rstrip() for ln in p.stdout.splitlines() if ln.strip()]
    want = [ln.rstrip() for ln in str(case["out"]).splitlines()
            if ln.strip()]
    assert got == want
