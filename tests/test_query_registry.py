"""The driver contract without Ray: `queries()` and `oracle_sql()` are one
registry of 211 queries, whose names, functions and SQL are pinned by a
digest; the shared `_milli` and `_geotag` helpers match DuckDB."""

import hashlib
import re

import duckdb
import numpy as np
import pandas as pd

import __ray_entry__ as E

# SHA-256 over repr(sorted((name, fn.__name__, sql))) of the 211 queries,
# as first computed from the two hand-written dicts this registry
# replaced. A renamed query or an edited oracle changes it.
REGISTRY_SHA256 = \
    "a57031dc22f6037626fe08c228c6da83d52a956991823489d387741b91b3687e"


def _num(name: str) -> int:
    return int(re.match(r"q(\d+)_", name).group(1))


def test_queries_and_oracles_share_one_numeric_key_list():
    qs, sql = E.queries(), E.oracle_sql()
    assert list(qs) == list(sql)
    assert [_num(n) for n in qs] == list(range(1, 212))
    assert sum(timed for *_, timed in E._QUERIES) == 101


def test_registry_digest_and_functions():
    qs, sql = E.queries(), E.oracle_sql()
    for name, fn in qs.items():
        assert fn is getattr(E, fn.__name__)
        assert fn.__name__.startswith(f"_q{name.split('_')[0][1:]}_")
        assert isinstance(sql[name], str) and sql[name].strip()
    triples = sorted((n, qs[n].__name__, sql[n]) for n in qs)
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()
    assert digest == REGISTRY_SHA256


def _sql_column(con, expr: str, v: np.ndarray) -> np.ndarray:
    con.register("t", pd.DataFrame({"i": np.arange(len(v)), "v": v}))
    return con.execute(f"SELECT {expr} AS m FROM t ORDER BY i") \
        .fetchdf()["m"].to_numpy()


def test_milli_rounds_like_sql():
    halves = np.array([(k + 0.5) / 1000 for k in range(-40, 40)])
    # every v * 1000 here is exactly k.5: the tie cases
    x = halves * 1000
    assert (x == np.floor(x) + 0.5).all()
    rng = np.random.default_rng(7)
    v = np.concatenate([
        halves,
        [0.49999999999999994 / 1000, -0.49999999999999994 / 1000,
         0.0, -0.0, 4503599627370497 / 1000, -4503599627370497 / 1000],
        rng.normal(0, 50, 200)])
    want = _sql_column(duckdb.connect(),
                       "CAST(round(v * 1000) AS BIGINT)", v)
    got = E._milli(v)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the ties are where half-to-even rounding would differ
    assert not np.array_equal(np.rint(v * 1000).astype(np.int64), want)


def test_geotag_matches_sql():
    i = np.array([0, 1, 2, 999, 4999, 123456, 10**9], dtype=np.int64)
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"doc_id": i}))
    want = con.execute(E._GEO_SQL.replace("FROM documents", "FROM t")
                       + " ORDER BY doc_id").fetchdf()
    lon, lat = E._geotag(i)
    assert np.array_equal(lon, want["lon"].to_numpy())
    assert np.array_equal(lat, want["lat"].to_numpy())
