"""The contract of `exchange.co_partition`, the one exchange primitive,
and a source ratchet that keeps it the only hash-bucket exchange."""

import ast
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _blocks(df: pd.DataFrame, n: int = 6):
    import ray.data as rd

    return rd.from_pandas([df.iloc[i::n].reset_index(drop=True)
                           for i in range(n)])


def _calls_per_key(ds, key):
    """Run co_partition with an fn that tags each row with its call id
    and reports whether `_bk` was visible; -> (rows out, key -> calls)."""
    from proj_ray.exchange import co_partition

    cols = [key] if isinstance(key, str) else list(key)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "call": uuid.uuid4().hex,
            "key": [repr(tuple(r)) for r in g[cols].itertuples(
                index=False)],
            "saw_bk": "_bk" in g.columns})

    out = co_partition(ds, key, fn).to_pandas()
    assert not out["saw_bk"].any()
    return out, out.groupby("key")["call"].nunique()


@pytest.mark.parametrize("kind", ["int", "str_with_none", "two_columns"])
def test_each_key_reaches_one_call(ray_session, kind):
    rng = np.random.default_rng(1)
    n = 3000
    k = rng.integers(-500, 500, n)
    df = pd.DataFrame({"k": k, "v": np.arange(n)})
    if kind == "int":
        key = "k"
    elif kind == "str_with_none":
        df["k"] = [None if x % 7 == 0 else f"s{x}" for x in k]
        key = "k"
    else:
        df["k2"] = rng.integers(0, 3, n)
        key = ["k", "k2"]
    ds = _blocks(df)
    assert ds.num_blocks() >= 6
    out, calls = _calls_per_key(ds, key)
    assert len(out) == n
    assert (calls == 1).all()
    cols = [key] if isinstance(key, str) else key
    assert len(calls) == len(df[cols].drop_duplicates())


def test_union_co_partitions_on_a_shared_key(ray_session):
    """Two tagged inputs, each key column int64 on both sides (stable_mod
    hashes 3 and 3.0 differently), with their columns in different
    orders: every key's rows from both sides meet in one call, whether
    the inputs come as a list or already unioned."""
    from proj_ray.exchange import co_partition

    rng = np.random.default_rng(2)
    left = pd.DataFrame({"k": rng.integers(0, 400, 2000),
                         "a": np.arange(2000, dtype=np.int64)})
    right = pd.DataFrame({"b": np.arange(400, dtype=np.int64) * 10,
                          "k": np.arange(400, dtype=np.int64)})

    def tagged(df, side):
        return _blocks(df.assign(side=np.int64(side)))

    def join(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g[g["side"] == 0][["k", "a"]]
        rhs = g[g["side"] == 1][["k", "b"]]
        return lhs.merge(rhs, on="k").astype(np.int64)

    want = left.merge(right, on="k").sort_values("a", ignore_index=True)
    for inputs in ([tagged(left, 0), tagged(right, 1)],
                   tagged(left, 0).union(tagged(right, 1))):
        got = (co_partition(inputs, "k", join).to_pandas()
               .sort_values("a", ignore_index=True)[["k", "a", "b"]])
        pd.testing.assert_frame_equal(got, want[["k", "a", "b"]])


def test_empty_input(ray_session):
    import ray.data as rd

    from proj_ray.exchange import co_partition

    def fn(g):
        raise AssertionError("no bucket to call fn on")

    empty = rd.from_items([{"k": 1, "v": 2}]).filter(lambda r: False)
    assert co_partition(empty, "k", fn).count() == 0
    typed = rd.from_pandas(pd.DataFrame({"k": np.empty(0, np.int64)}))
    assert co_partition(typed, "k", fn).take_all() == []


# functions whose bucket id is part of a file layout on disk, or
# encodes a skew policy, so they keep their own bucketing
ALLOWED = {
    "proj_ray/functions/dedup.py": {
        "dedup_index_build", "dedup_exact_incremental",
        "minhash_index_build", "minhash_incremental"},
    "proj_ray/functions/skewjoin.py": {"salted_join_agg"},
}


def _bucket_groupbys(path: Path):
    """(top-level function, line) of every `.groupby("_bk")` call."""
    tree = ast.parse(path.read_text())
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "groupby" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "_bk"):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_only_exchange_groups_on_a_bucket_column():
    files = [ROOT / "__ray_entry__.py", *sorted(
        (ROOT / "proj_ray").rglob("*.py"))]
    bad = []
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        if rel == "proj_ray/exchange.py":
            continue
        for fn, line in _bucket_groupbys(path):
            if fn not in ALLOWED.get(rel, set()):
                bad.append(f"{rel}:{line} ({fn})")
    assert not bad, "hand-rolled exchange; use exchange.co_partition: " \
        + ", ".join(bad)
    for rel, names in ALLOWED.items():
        seen = {fn for fn, _ in _bucket_groupbys(ROOT / rel)}
        assert seen == names, f"stale allowlist for {rel}: {seen}"


# size parameters that guard an error (raise above them), not a route
GUARD_CAPS = {"pairs_cap", "vocab_cap", "survivor_cap", "bucket_cap"}


def _route_params(source: str):
    """(function, parameter) of every def or lambda parameter that would
    pick a driver-or-exchange route by size: `*_cap` other than the
    error guards, `dim_cap`, `max_rows` and `force`. Routes are chosen
    by `dsutil.driver_table` with a `dsutil` cap instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                name = arg.arg
                if ((name.endswith("_cap") and name not in GUARD_CAPS)
                        or name in ("max_rows", "force")):
                    found.append((getattr(node, "name", "lambda"), name))
    return found


def test_route_params_ratchet_catches_a_cap_parameter():
    src = "def join(a, b, broadcast_rows_cap=2_000_000):\n    pass\n"
    assert _route_params(src) == [("join", "broadcast_rows_cap")]
    assert _route_params("def f(x, pairs_cap=10, force_x=1):\n"
                         "    pass\n") == []


def test_no_function_takes_a_route_size_parameter():
    files = [ROOT / "__ray_entry__.py", *sorted(
        (ROOT / "proj_ray").rglob("*.py"))]
    bad = [f"{path.relative_to(ROOT).as_posix()} {fn}({name})"
           for path in files
           for fn, name in _route_params(path.read_text())]
    assert not bad, "route by dsutil.driver_table, not a parameter: " \
        + ", ".join(bad)
