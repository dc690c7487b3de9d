"""Span tracing for the benchmark, recorded from outside the program.

A traced run wraps the public entry points of each `proj_ray` layer that
the driver calls, plus the Ray Data execution triggers (materialize,
iter_batches, take_all, write_parquet), because Ray Data plans are lazy
and the work happens at the trigger. Each span has a name, start, end,
parent and run id; spans stay in memory until the run writes them out.
Every execution trigger also keeps the per-operator stats of the plan it
ran, taken from Ray Data's own `Dataset.stats()` summary.

Wrapping happens only inside `Tracer.instrument()`; an untraced run
never touches the program.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (module path, attribute, span name): driver-side layer entry points.
# Modules that import a name at load time are patched there as well.
LAYER_ENTRY_POINTS = [
    ("proj_ray.stages", "reproject", "ops.reproject"),
    ("proj_ray.stages", "with_tiles", "tiles.with_tiles"),
    ("proj_ray.stages", "spatial_join", "join.spatial_join"),
    ("proj_ray.stages", "knn_build", "knn.knn_build"),
    ("proj_ray.stages", "knn_index", "knn.knn_index"),
    ("proj_ray.pipelines.spatial", "bucketed_sum", "exchange.bucketed_sum"),
    ("proj_ray.pipelines.spatial", "tile_counts_salted",
     "exchange.tile_counts_salted"),
    ("proj_ray.pipelines.spatial", "pull_pandas", "driver.pull_pandas"),
    ("proj_ray.dsutil", "pull_pandas", "driver.pull_pandas"),
    ("proj_ray.state", "resumable_write", "state.resumable_write"),
]

EXECUTION_TRIGGERS = ["materialize", "take_all", "write_parquet"]

# Ray Data operator names that are all-to-all exchanges
ALL_TO_ALL = ("Sort", "Aggregate", "Repartition", "RandomShuffle",
              "HashShuffle", "Join", "HashAggregate")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.operators: list[dict] = []
        self._stack: list[int] = []
        self._seen_ops: set = set()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if hasattr(out, "shape"):  # a pulled DataFrame
                    rec["rows"] = int(out.shape[0])
                return out
        return wrapper

    def _wrap_trigger(self, fn, method):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ds, *args, **kwargs):
            with tracer.span(f"engine.{method}") as rec:
                out = fn(ds, *args, **kwargs)
            tracer._record_stats(out if method == "materialize" else ds,
                                 rec["id"])
            return out
        return wrapper

    def _wrap_iter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ds, *args, **kwargs):
            with tracer.span("engine.iter_batches") as rec:
                rows = 0
                for batch in fn(ds, *args, **kwargs):
                    rows += _batch_rows(batch)
                    yield batch
                rec["rows"] = rows
            tracer._record_stats(ds, rec["id"])
        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Patch the layer entry points and Ray Data triggers; undo on
        exit."""
        import importlib

        from ray.data import Dataset

        saved = []
        try:
            for mod_name, attr, span_name in LAYER_ENTRY_POINTS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, span_name))
            for method in EXECUTION_TRIGGERS:
                orig = getattr(Dataset, method)
                saved.append((Dataset, method, orig))
                setattr(Dataset, method, self._wrap_trigger(orig, method))
            saved.append((Dataset, "iter_batches", Dataset.iter_batches))
            Dataset.iter_batches = self._wrap_iter(Dataset.iter_batches)
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def _record_stats(self, ds, span_id: int):
        """Keep the operators this execution ran. A plan's stats chain
        repeats operators of upstream executions it reuses, so each
        operator is kept once, keyed by name and start time."""
        try:
            summary = ds._plan.stats().to_summary()
        except AttributeError:
            return
        stack = [summary]
        while stack:
            s = stack.pop()
            stack.extend(s.parents)
            for o in s.operators_stats:
                key = (o.operator_name, o.earliest_start_time)
                if key in self._seen_ops:
                    continue
                self._seen_ops.add(key)
                self.operators.append({
                    "span": span_id,
                    "name": o.operator_name,
                    "sub": bool(o.is_sub_operator),
                    "time_total_s": float(o.time_total_s or 0.0),
                    "start": float(o.earliest_start_time or 0.0),
                    "end": float(o.latest_end_time or 0.0),
                    "wall_s": _stat_sum(o.wall_time),
                    "udf_s": _stat_sum(o.udf_time),
                    "rows_out": _stat_sum(o.output_num_rows),
                    "bytes_out": _stat_sum(o.output_size_bytes),
                })

    # ------------------------------------------------------------ analysis

    def descendants(self, root: int) -> list[dict]:
        kids: dict = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        out, todo = [], [root]
        while todo:
            for c in kids.get(todo.pop(), []):
                out.append(c)
                todo.append(c["id"])
        return out

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it covered by direct children."""
        kids = sorted((s["start"], s["end"]) for s in self.spans
                      if s["parent"] == span["id"])
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in kids:
            a, b = max(a, span["start"]), min(b, span["end"])
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        return (span["end"] - span["start"]) - covered

    def by_name(self, root: int) -> dict[str, dict]:
        """Per span name under `root`: count, total and self seconds."""
        out: dict = {}
        for s in self.descendants(root):
            d = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            d["count"] += 1
            d["total_s"] += s["end"] - s["start"]
            d["self_s"] += self.self_time(s)
        return out

    def operators_under(self, root: int) -> list[dict]:
        ids = {s["id"] for s in self.descendants(root)} | {root}
        return [o for o in self.operators if o["span"] in ids]


def is_all_to_all(op_name: str) -> bool:
    return any(op_name.startswith(p) for p in ALL_TO_ALL)


def _stat_sum(d) -> float:
    if not d:
        return 0.0
    return float(d.get("sum", 0.0) or 0.0)


def _batch_rows(batch) -> int:
    if hasattr(batch, "num_rows"):
        return int(batch.num_rows)
    if hasattr(batch, "shape"):
        return int(batch.shape[0])
    if isinstance(batch, dict) and batch:
        return len(next(iter(batch.values())))
    return 0
