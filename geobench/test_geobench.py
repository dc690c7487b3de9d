"""Self-test of the benchmark at toy sizes and a fixed seed.

    python3 -m pytest geobench/test_geobench.py -q

Runs every workload untraced and traced, and asserts that every output
check passes and that every metric BENCHMARK.json names is emitted with
its unit. Also checks that the benchmark refuses to run, without
printing a result, where there is no program to measure, and that it
ends the processes its own children leave behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# knn_lookup is left out of BENCHMARK.json but stays runnable; it
# reports latency where the batch workloads report throughput
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["knn_lookup"]
KNN_END_TO_END = [{"name": "query_p50_ms", "unit": "ms"},
                  {"name": "query_p90_ms", "unit": "ms"}] + [
    m for m in SPEC["end_to_end"] if m["name"] != "rows_per_s"]


def run_bench(cwd: str, workload: str, trace: int, *extra: str):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_checks_and_metrics(workload, trace, tmp_path):
    out_file = tmp_path / "result.json"
    p = run_bench(ROOT, workload, trace, "--scale", "toy",
                  "--out", str(out_file))
    assert p.returncode == 0, p.stderr[-4000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        wanted = SPEC["per_layer"]
    elif workload == "knn_lookup":
        wanted = KNN_END_TO_END
    else:
        wanted = SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    record = json.loads(out_file.read_text())
    assert record["context"]["calibration"]["burn_effective_cores"] > 0
    for metric in record["metrics"].values():
        assert metric["command"].startswith("python3 geobench/run.py")
    if trace:
        assert record["spans"] and record["operators"]
        assert "trace.overhead_pct" in result["metrics"]


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_diff_prints_every_metric(tmp_path):
    p = run_bench(ROOT, "knn_lookup", 0, "--scale", "toy",
                  "--out", str(tmp_path / "a.json"))
    assert p.returncode == 0, p.stderr[-4000:]
    d = subprocess.run([sys.executable, os.path.join(HERE, "diff.py"),
                        str(tmp_path / "a.json"), str(tmp_path / "a.json")],
                       capture_output=True, text=True, check=True)
    for m in KNN_END_TO_END:
        assert m["name"] in d.stdout
    assert "x1.000 of base" in d.stdout


ORPHAN_SCRIPT = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
run.become_subreaper()
# the child exits at once and leaves a grandchild that ignores SIGTERM
sh = subprocess.Popen(["sh", "-c", "trap '' TERM; sleep 60 & echo $!"],
                      stdout=subprocess.PIPE, text=True)
orphan = int(sh.stdout.readline())
sh.wait()
run.stop_children(grace_s=0.2)
print(orphan, run.live_children())
"""


def test_stop_children_ends_orphaned_descendants():
    p = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, HERE],
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr[-4000:]
    orphan, left = p.stdout.split(" ", 1)
    assert left.strip() == "[]"
    assert not os.path.exists(f"/proc/{orphan}")


def test_knn_check_accepts_only_ties_out_of_order():
    import numpy as np
    import pandas as pd

    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.KnnLookup(7, "", "toy")
    # two points tie at 1 deg east and west of the query; a third is
    # further out
    wl.points = {"id": np.array([3, 5, 8]),
                 "lon": np.array([1.0, -1.0, 3.0]),
                 "lat": np.zeros(3)}
    wl.qlon, wl.qlat, wl.k = np.zeros(1), np.zeros(1), 3
    wl.oracle()
    ids, dist = wl._brute(0)
    assert list(ids) == [3, 5, 8]

    def result(order, d=dist):
        return 0, pd.DataFrame({"nid": order, "dist": d})

    assert wl.check(result([3, 5, 8]))
    assert wl.check(result([5, 3, 8]))  # a tie, in either order
    assert not wl.check(result([3, 8, 5]))  # 8 paired with 5's distance
    assert not wl.check(result([3, 3, 8]))
    assert not wl.check(result([3, 5, 8], dist * [1, 1, 2]))


def test_exchange_wall_spans_barrier_and_scheduling():
    sys.path.insert(0, HERE)
    import perlayer

    def op(name, start, end, sub=False):
        return {"name": name, "sub": sub, "span": 1, "start": start,
                "end": end}

    # stats order: downstream first, then the exchange's sub-operators,
    # then the operator feeding it
    ops = [op("MapBatches(post)", 5.0, 5.5),
           op("SortMap", 3.0, 3.1, sub=True),
           op("SortReduce", 4.0, 4.1, sub=True),
           op("MapBatches(pre)", 1.0, 2.0),
           op("ReadParquet", 0.0, 1.5)]
    assert perlayer.exchange_walls(ops) == [3.0]
    # with nothing around it, the exchange's own sub-operators bound it
    assert perlayer.exchange_walls(ops[1:3]) == [4.1 - 3.0]
