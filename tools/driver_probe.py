"""Driver-side probe of `dsutil.materialize` and `dsutil.from_arrow`: a
base commit against the working tree.

    python tools/driver_probe.py --out PROBE.json [--base HEAD] \\
        [--seed 11] [--rounds 15] [--pairs 3]

geobench's tracer wraps `Dataset.materialize`, so an execution that
`dsutil.materialize` runs without it leaves no span there. This probe
times the helpers themselves. Each side runs in a fresh process started
as geobench starts Ray (`geobench/run.py:start_ray`), sets up geobench's
tile_join and tile_export workloads for `--seed` and runs each workload's
op `--rounds` times with `dsutil.materialize` and `dsutil.from_arrow`
wrapped; it records every call's seconds by its position in the op
(`materialize#1`, ...) and, for each `materialize`, the task count,
summed remote wall time and summed UDF time of the last operator that
its result's `stats()` reports. A 1-block map (a 1,000-row
`from_arrow` table through an identity `map_batches`) is timed as well.
`--pairs` pairs run, the side that goes first alternating; the output
holds per side the median of every call over all rounds, and the
change's median over the base's.

The base side is a `git archive` of `--base` unpacked in a temporary
directory, removed on exit; geobench runs from each checkout as it is."""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from geobench_ab import archive  # noqa: E402

UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _total_s(line: str) -> float:
    """The `..., <v><unit> total` figure of a stats line, in seconds."""
    v, unit = re.search(r"([\d.]+)(us|ms|s) total", line).groups()
    return float(v) * UNIT_S[unit]


def operator_stats(text: str) -> dict:
    """Tasks, summed remote wall and summed UDF seconds of the last
    operator in a `Dataset.stats()` text ({} when it reports none)."""
    last = text.split("\nOperator ")[-1]
    tasks = re.search(r": (\d+) tasks executed", last)
    if tasks is None:
        return {}
    lines = last.splitlines()
    wall = next(ln for ln in lines if "Remote wall time" in ln)
    udf = next(ln for ln in lines if "UDF time" in ln)
    return {"tasks": int(tasks.group(1)), "wall_s": _total_s(wall),
            "udf_s": _total_s(udf)}


def side(checkout: str, seed: int, rounds: int) -> dict:
    """Run in `checkout`: every wrapped call of every round."""
    sys.path[:0] = [checkout, os.path.join(checkout, "geobench")]
    import numpy as np
    import pyarrow as pa

    import run as geobench_run
    import workloads
    from ray import cloudpickle

    cloudpickle.register_pickle_by_value(workloads)  # as geobench/run.py
    geobench_run.start_ray(checkout)
    from proj_ray import dsutil

    calls: list[dict] = []
    count: dict = {}
    real = {f: getattr(dsutil, f) for f in ("materialize", "from_arrow")}

    def wrap(fn):
        def timed(*args):
            t0 = time.perf_counter()
            out = real[fn](*args)
            dt = time.perf_counter() - t0
            count[fn] = count.get(fn, 0) + 1
            rec = {"call": f"{fn}#{count[fn]}", "s": dt}
            if fn == "materialize":
                rec.update(operator_stats(out.stats()))
            calls.append(rec)
            return out
        return timed

    work = tempfile.mkdtemp(prefix="driver-probe-")
    try:
        for cls in (workloads.TileJoin, workloads.TileExport):
            wl = cls(seed, os.path.join(work, cls.name))
            wl.setup(0)
            for f in real:
                setattr(dsutil, f, wrap(f))
            for _ in range(rounds):
                count.clear()
                n = len(calls)
                out = wl.op()
                for rec in calls[n:]:
                    rec["workload"] = cls.name
                if cls is workloads.TileExport:
                    wl.check(out)  # deletes the written files
            for f, fn in real.items():
                setattr(dsutil, f, fn)
        small = dsutil.from_arrow(pa.table({"k": np.arange(1000)}))
        one = small.map_batches(lambda t: t, batch_format="pyarrow")
        dsutil.materialize(one)
        for _ in range(rounds):
            t0 = time.perf_counter()
            dsutil.materialize(one)
            calls.append({"workload": "one_block_map", "call": "materialize",
                          "s": time.perf_counter() - t0})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"calls": calls}


def summarize(calls: list[dict]) -> dict:
    """Medians per (workload, call) of seconds, tasks, wall and UDF."""
    groups: dict = {}
    for rec in calls:
        groups.setdefault(f"{rec['workload']}.{rec['call']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        row = {"n": len(recs),
               "ms": round(statistics.median(r["s"] for r in recs) * 1e3, 2)}
        for m in ("tasks", "wall_s", "udf_s"):
            got = [r[m] for r in recs if m in r]
            if got:
                row[m] = round(statistics.median(got), 4)
        out[key] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out")
    p.add_argument("--base", default="HEAD")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--side", help=argparse.SUPPRESS)  # one side, in-process
    args = p.parse_args(argv)
    if not args.out:
        p.error("--out is required")
    if args.side:
        with open(args.out, "w") as f:
            json.dump(side(args.side, args.seed, args.rounds), f)
        return 0

    tmp = tempfile.mkdtemp(prefix="driver-probe-base-")
    try:
        base = os.path.join(tmp, "base")
        os.mkdir(base)
        full = archive(args.base, base)
        runs: dict = {"base": [], "change": []}
        for i in range(args.pairs):
            order = [("base", base), ("change", ROOT)]
            for name, checkout in order if i % 2 == 0 else order[::-1]:
                sys.stderr.write(f"pair {i + 1}/{args.pairs}: {name}\n")
                out = os.path.join(tmp, "side.json")
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--side", checkout, "--seed", str(args.seed),
                     "--rounds", str(args.rounds), "--out", out],
                    cwd=checkout, capture_output=True, text=True)
                if proc.returncode:
                    sys.stderr.write(proc.stderr[-4000:])
                    raise RuntimeError(f"probe failed in {checkout}")
                with open(out) as f:
                    runs[name] += json.load(f)["calls"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    med = {name: summarize(calls) for name, calls in runs.items()}
    ratio = {k: round(med["change"][k]["ms"] / med["base"][k]["ms"], 3)
             for k in med["base"] if k in med["change"]}
    with open(args.out, "w") as f:
        json.dump({"base": full, "seed": args.seed, "rounds": args.rounds,
                   "pairs": args.pairs, "median": med,
                   "change_over_base_ms": ratio}, f, indent=1)
        f.write("\n")
    print(json.dumps({"median": med, "change_over_base_ms": ratio},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
