"""Layer-by-layer diff of two benchmark result files.

    python3 geobench/diff.py BASE.json NEW.json

Metrics are grouped by layer (the name before the first dot; end-to-end
metrics form the `e2e` group). For each metric the diff prints both
values, the ratio NEW / BASE and its base, and whether the change is in
the metric's better direction. Host calibration of both runs is printed
first, since a ratio between runs on differently loaded hosts means
little.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def directions() -> dict[str, str]:
    """metric name -> "higher" or "lower", from BENCHMARK.json."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "e2e"


def diff(base: dict, new: dict, better: dict[str, str]) -> list[str]:
    lines = [f"base: {base['command']}", f"new:  {new['command']}"]
    for tag, rec in (("base", base), ("new", new)):
        cal = rec["context"].get("calibration", {})
        cpu = rec["context"].get("measure_cpu", {})
        lines.append(f"{tag} host: nproc={cal.get('nproc')} "
                     f"load1={cal.get('loadavg_1m', 0):.2f} "
                     f"burn_cores={cal.get('burn_effective_cores', 0):.2f} "
                     f"steal_while_timed={cpu.get('cpu_steal_pct', 0):.1f}%")
    names = list(base["metrics"]) + [m for m in new["metrics"]
                                     if m not in base["metrics"]]
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(layer_of(name), []).append(name)
    width = max(len(n) for n in names)
    for layer, members in groups.items():
        lines.append(f"[{layer}]")
        for name in members:
            a = base["metrics"].get(name)
            b = new["metrics"].get(name)
            if a is None or b is None:
                lines.append(f"  {name:<{width}}  only in "
                             f"{'base' if b is None else 'new'}")
                continue
            unit = a["unit"]
            va, vb = a["value"], b["value"]
            if va:
                ratio = f"x{vb / va:.3f} of base {va:.6g}"
                way = better.get(name)
                if way and vb != va:
                    good = (vb > va) == (way == "higher")
                    ratio += "  better" if good else "  worse"
            else:
                ratio = "ratio undefined (base 0)"
            lines.append(f"  {name:<{width}}  {va:>14.6g} -> {vb:<14.6g}"
                         f" {unit:<12} {ratio}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    print("\n".join(diff(base, new, directions())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
