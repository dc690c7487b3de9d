"""A/B geobench runs: a base commit against the working tree.

    python tools/geobench_ab.py --out BENCH_x.json --what "..." \\
        [--base HEAD] [--seeds 11 12 13 14 15] [--trace 0]

The base side is a `git archive` of `--base` (default HEAD, the parent
of uncommitted changes) unpacked in a temporary directory; the change
side is the working tree. For each seed and workload the two sides run
`geobench/run.py` back to back, one fresh process each, and the side
that runs first alternates from one pair to the next, so neither side
always gets the warmer or the quieter host. The workloads and the run
length are `BENCHMARK.json`'s (`workloads`, `run_seconds`). geobench
itself is run as it is in each checkout, never edited.

The output file holds every run (its end-to-end or per-layer metrics,
failed and attempted ops, and the host's CPU steal while timed; for a
traced run, the median per op of each span name's seconds and the span
summary) and, per metric, each side's median,
quartiles and IQR, the change's median over the base's, and the ratio
per seed. Progress goes to stderr; the temporary checkout is removed
on exit."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="BENCH_*.json to write")
    p.add_argument("--what", required=True,
                   help="one line: what the change is")
    p.add_argument("--base", default="HEAD",
                   help="git revision of the base side (default HEAD)")
    p.add_argument("--seeds", type=int, nargs="+",
                   default=[11, 12, 13, 14, 15])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def archive(rev: str, dest: str) -> str:
    """Unpack `git archive rev` into `dest`; returns the full hash."""
    full = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    tar = subprocess.Popen(["git", "archive", full], cwd=ROOT,
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=tar.stdout, check=True)
    tar.stdout.close()
    if tar.wait():
        raise RuntimeError(f"git archive {rev} failed")
    return full


def run_one(checkout: str, workload: str, seed: int, seconds: float,
            trace: int, out: str) -> dict:
    """One geobench run in `checkout`; its result record, summarized."""
    cmd = [sys.executable, "geobench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace), "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode or not os.path.isfile(out):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"geobench failed in {checkout}: {cmd}")
    with open(out) as f:
        rec = json.load(f)
    row = {"workload": workload, "seed": seed,
           "wall_s": round(time.perf_counter() - t0, 1),
           "failed": rec["failed"], "attempted": rec["attempted"],
           "cpu_steal_pct": round(
               rec["context"]["measure_cpu"]["cpu_steal_pct"], 2),
           "metrics": {k: v["value"] for k, v in rec["metrics"].items()}}
    if trace:
        row["traced_ops"] = len(rec["samples"]["traced_latencies_s"])
        row["span_median_per_op_s"] = span_medians(rec["spans"])
        row["span_summary"] = rec.get("span_summary", {})
    return row


def span_medians(spans: list[dict]) -> dict:
    """Per span name, the median over traced ops of its summed seconds
    in one op (an op without that span counts 0)."""
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    per: dict = {}
    ops = [s["id"] for s in spans if s["name"] == "op"
           and s["parent"] is None]
    for s in spans:
        r = root(s)
        if r["name"] == "op":
            d = per.setdefault(s["name"], dict.fromkeys(ops, 0.0))
            d[r["id"]] += s["end"] - s["start"]
    return {name: statistics.median(d.values()) for name, d in per.items()}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: both sides' quartiles, the median
    ratio and the ratio per seed (change / base)."""
    out: dict = {}
    by = {(r["side"], r["workload"], r["seed"]): r for r in runs}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted(s for side, w, s in by if side == "base" and w == wl
                       and ("change", w, s) in by)
        names = [m for m in by[("base", wl, seeds[0])]["metrics"]
                 if all(m in by[(side, wl, s)]["metrics"]
                        for side in ("base", "change") for s in seeds)]
        for m in names:
            vals = {side: [by[(side, wl, s)]["metrics"][m] for s in seeds]
                    for side in ("base", "change")}
            base, change = quartiles(vals["base"]), quartiles(vals["change"])
            out[f"{wl}.{m}"] = {
                "base": base, "change": change,
                "change_over_base_median": (change["median"] / base["median"]
                                            if base["median"] else None),
                "per_seed_ratio": {str(s): (c / b if b else None)
                                   for s, b, c in zip(seeds, vals["base"],
                                                      vals["change"])}}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    scratch = tempfile.mkdtemp(prefix="geobench-ab-")
    try:
        base_dir = os.path.join(scratch, "base")
        os.makedirs(base_dir)
        base_rev = archive(args.base, base_dir)
        sides = {"base": base_dir, "change": ROOT}
        runs, order = [], 0
        pairs = [(s, w) for s in args.seeds for w in workloads]
        for i, (seed, wl) in enumerate(pairs):
            first = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in first:
                out = os.path.join(scratch, f"{side}-{wl}-{seed}.json")
                row = run_one(sides[side], wl, seed, seconds, args.trace,
                              out)
                runs.append({"order": order, "side": side, **row})
                order += 1
                print(f"geobench_ab: {side} {wl} seed {seed}: failed "
                      f"{row['failed']}/{row['attempted']}, steal "
                      f"{row['cpu_steal_pct']}%, "
                      + ", ".join(f"{k}={v:.4g}" for k, v in
                                  list(row["metrics"].items())[:3]),
                      file=sys.stderr)
        record = {
            "what": args.what,
            "command": " ".join(["python", "tools/geobench_ab.py"]
                                + (argv if argv is not None
                                   else sys.argv[1:])),
            "geobench_command": (
                f"python3 geobench/run.py --workload "
                f"{{{','.join(workloads)}}} --seed "
                f"{{{','.join(map(str, args.seeds))}}} --seconds "
                f"{seconds:g} --trace {args.trace}, run from the root "
                "of each checkout"),
            "host": {"cpus": os.cpu_count(),
                     "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                                     * os.sysconf("SC_PHYS_PAGES") / 2**30,
                                     1)},
            "protocol": ("per seed and workload one base and one change run "
                         "back to back, alternating which side runs first; "
                         f"base = git archive of {args.base} ({base_rev}), "
                         "change = the working tree"),
            "base_rev": base_rev,
            "failed_ops": sum(r["failed"] for r in runs),
            "summary": summarize(runs),
            "runs": runs,
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
        print(f"geobench_ab: wrote {args.out}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
