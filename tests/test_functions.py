import numpy as np
import pytest

from proj_ray import dsutil


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/documents.parquet")


def test_text_stats(docs_ds):
    from proj_ray.functions.text import text_stats, simple_token_count

    out = text_stats(docs_ds).to_pandas()
    assert (out["n_tokens"] >= 0).all()
    assert (out["quality"].between(0, 1)).all()
    # token count formula equals the SQL-reproducible expression
    t = out["text"].fillna("")
    exp = np.where(t.str.len() > 0,
                   t.str.len() - t.str.replace(" ", "", regex=False)
                   .str.len() + 1, 0)
    assert np.array_equal(out["n_tokens"].to_numpy(), exp)


def test_dedup_exact(ray_session):
    import ray.data as rd

    from proj_ray.functions.dedup import dedup_exact

    rows = [{"key": f"k{i % 10}", "id": i} for i in range(100)]
    out = dedup_exact(rd.from_items(rows), "key", "id").to_pandas()
    assert len(out) == 10
    assert sorted(out["id"]) == list(range(10))


def test_minhash_lsh_finds_planted_neardups(ray_session):
    import ray.data as rd

    from proj_ray.functions.dedup import dedup_minhash_lsh

    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep green forest tonight")
    rows = []
    for i in range(30):
        rows.append({"doc_id": i, "text": f"unique document number {i} "
                     f"with totally different content {i * 12345}"})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base + " extra"})
    ds = rd.from_items(rows)
    pairs = dedup_minhash_lsh(ds, "text", "doc_id",
                              threshold=0.5).to_pandas()
    assert ((pairs["id_a"] == 100) & (pairs["id_b"] == 101)).any()


def test_simhash_neardups(ray_session):
    import ray.data as rd

    from proj_ray.functions.dedup import dedup_simhash, simhash64, hamming64

    a = "a long enough piece of text that will produce a simhash value"
    rows = [{"doc_id": 0, "text": a},
            {"doc_id": 1, "text": a.replace("value", "value!")},
            {"doc_id": 2, "text": "completely different content here xyz"}]
    h = simhash64([r["text"] for r in rows])
    assert hamming64(h[:1], h[1:2])[0] <= 6
    pairs = dedup_simhash(rd.from_items(rows), "text", "doc_id",
                          max_hamming=6).to_pandas()
    assert ((pairs["id_a"] == 0) & (pairs["id_b"] == 1)).any()

    # a pair at hamming 6 with a differing bit in each 16-bit band, so
    # no 4 x 16-bit banding can bring it together. Texts of at most 4
    # bytes hash whole (blake2b); longer texts set only the low ~23
    # simhash bits, so such a pair needs short texts (found by search)
    rows = [{"doc_id": 3, "text": "ea9n"}, {"doc_id": 4, "text": "zvym"}]
    h = simhash64([r["text"] for r in rows]).view(np.uint64)
    assert hamming64(h[:1].view(np.int64), h[1:].view(np.int64))[0] == 6
    assert all((h[0] ^ h[1]) >> np.uint64(16 * b) & np.uint64(0xFFFF)
               for b in range(4))
    pairs = dedup_simhash(rd.from_items(rows), "text", "doc_id",
                          max_hamming=6).to_pandas()
    assert list(zip(pairs["id_a"], pairs["id_b"])) == [(3, 4)]


def test_ann_brute_vs_oracle(ray_session):
    import ray.data as rd

    from proj_ray.functions.ann import ann_brute

    ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    rows = ds.take(5)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in rows])
    res = ann_brute(ds, Q, k=3)
    # each query's own vector must be its rank-1 neighbor (cos=1)
    for qi, r in enumerate(rows):
        top = res[(res["q"] == qi) & (res["rank"] == 1)]
        assert top["cosine"].iloc[0] >= 0.9999
        assert top["nid"].iloc[0] == r["vec_id"]


def test_ann_ivf_recall(ray_session):
    import ray.data as rd

    from proj_ray.functions.ann import ann_brute, ann_ivf

    ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    rows = ds.take(8)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in rows])
    exact = ann_brute(ds, Q, k=5)
    approx = ann_ivf(ds, Q, k=5, nprobe=8)
    # recall@5 of IVF vs exact should be decent with nprobe=8/64 lists
    hits = 0
    for qi in range(len(Q)):
        e = set(exact[exact["q"] == qi]["nid"])
        a = set(approx[approx["q"] == qi]["nid"])
        hits += len(e & a) / max(1, len(e))
    assert hits / len(Q) >= 0.5


def test_dedup_embedding(ray_session):
    import ray.data as rd

    from proj_ray.functions.dedup import dedup_embedding

    rng = np.random.default_rng(0)
    base = rng.normal(size=16)
    rows = []
    for i in range(20):
        rows.append({"vec_id": i, "embedding": rng.normal(size=16)})
    rows.append({"vec_id": 100, "embedding": base})
    rows.append({"vec_id": 101, "embedding": base + 1e-3})
    out = dedup_embedding(rd.from_items(rows), "embedding", "vec_id",
                          threshold=0.99).to_pandas()
    assert ((out["id_a"] == 100) & (out["id_b"] == 101)).any()


def test_cosine_pairs_exact_vs_lsh(ray_session):
    """cosine_pairs is the exact ground truth; every pair the LSH path
    emits must be in it with the same cosine, and on clustered data the
    LSH recall should be substantial (buckets only lose cross-bucket
    pairs)."""
    import ray.data as rd

    from proj_ray.functions.dedup import cosine_pairs, dedup_embedding

    rng = np.random.default_rng(7)
    rows = []
    for c in range(8):  # 8 tight clusters of 6 -> 120 true pairs
        center = rng.normal(size=16)
        for j in range(6):
            rows.append({"vec_id": c * 10 + j,
                         "embedding": center + rng.normal(size=16) * 1e-2})
    ds = rd.from_items(rows)
    exact = cosine_pairs(ds, "embedding", "vec_id",
                         threshold=0.9).to_pandas()
    assert len(exact) == 8 * 15  # all within-cluster pairs, none across
    truth = {(a, b): c for a, b, c in
             zip(exact["id_a"], exact["id_b"], exact["cosine"])}
    lsh = dedup_embedding(ds, "embedding", "vec_id", threshold=0.9,
                          nbits=8).to_pandas()
    assert len(lsh) > 0
    for a, b, c in zip(lsh["id_a"], lsh["id_b"], lsh["cosine"]):
        assert (a, b) in truth and abs(truth[(a, b)] - c) < 1e-12
    assert len(lsh) / len(exact) >= 0.5  # recall on clustered data


def test_q33_dispatches_to_lsh_above_cap(ray_session, monkeypatch):
    """q33 routes through the LSH scale path when the table exceeds
    _EXACT_COSINE_CAP (so no driver-side full-table pull happens above
    the documented bound) and through the exact path below it."""
    import __ray_entry__ as E

    sf = "/root/testdata/sf0.001"
    exact = E._q33_dedup_embedding(sf)
    monkeypatch.setattr(E, "_EXACT_COSINE_CAP", 10)
    lsh = E._q33_dedup_embedding(sf)
    truth = {(a, b): c for a, b, c in
             zip(exact["id_a"], exact["id_b"], exact["cosine"])}
    assert len(lsh) > 0
    for a, b, c in zip(lsh["id_a"], lsh["id_b"], lsh["cosine"]):
        assert (a, b) in truth and abs(truth[(a, b)] - c) < 1e-6


def test_ivf_build_partition_pruned(ray_session, tmp_path):
    import os

    import ray.data as rd

    from proj_ray.functions.ann import (ann_brute, ann_ivf_index,
                                        ivf_build)

    ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    path = str(tmp_path / "ivf")
    C = ivf_build(ds, path, n_centroids=16)
    assert os.path.exists(f"{path}/centroids.npy")
    parts = [d for d in os.listdir(path) if d.startswith("ivf_list=")]
    assert len(parts) > 1  # vectors actually routed to many lists
    rows = ds.take(4)
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                  for r in rows])
    res = ann_ivf_index(path, Q, k=5, nprobe=4)
    exact = ann_brute(ds, Q, k=5)
    hits = 0.0
    for qi in range(len(Q)):
        e = set(exact[exact["q"] == qi]["nid"])
        a = set(res[res["q"] == qi]["nid"])
        hits += len(e & a) / max(1, len(e))
    assert hits / len(Q) >= 0.5
    # nprobe=all lists must recover the exact result
    full = ann_ivf_index(path, Q, k=5, nprobe=len(C))
    for qi in range(len(Q)):
        assert (set(full[full["q"] == qi]["nid"])
                == set(exact[exact["q"] == qi]["nid"]))


def test_minhash_all_paths_agree(ray_session, monkeypatch):
    """The three execution shapes (local pairing + broadcast verify,
    distributed band groupby, distributed two-pass attach verify) must
    produce the identical verified pair set."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.dedup import dedup_minhash_lsh

    base = ("some shared document body that is long enough to produce "
            "plenty of shingles for a stable minhash signature vector")
    rows = []
    for i in range(40):
        rows.append({"doc_id": i,
                     "text": f"unique filler number {i} * {i * 997} "
                             f"nothing alike here {i ** 2}"})
    for i, suffix in enumerate([" one", " two", " three"]):
        rows.append({"doc_id": 200 + i, "text": base + suffix})
    ds = rd.from_items(rows)

    def norm(df: pd.DataFrame) -> list[tuple]:
        return sorted(zip(df["id_a"].astype(int), df["id_b"].astype(int)))

    fast = norm(dedup_minhash_lsh(ds, "text", "doc_id",
                                  threshold=0.5).to_pandas())
    monkeypatch.setattr(dsutil, "DRIVER_FINISH_ROWS", 0)
    dist_bucket = norm(dedup_minhash_lsh(
        ds, "text", "doc_id", threshold=0.5).to_pandas())
    monkeypatch.setattr(dsutil, "DOC_ROWS", 0)
    dist_verify = norm(dedup_minhash_lsh(
        ds, "text", "doc_id", threshold=0.5).to_pandas())
    assert fast == dist_bucket == dist_verify
    assert (200, 201) in fast and (200, 202) in fast


def test_ngram_jaccard_exact_recall_all_paths(ray_session, monkeypatch):
    """dedup_ngram_jaccard is an EXACT similarity join: its output must
    equal the brute-force all-pairs word-bigram jaccard >= t set, on
    every execution shape (local prefix pipeline + broadcast verify,
    distributed 3-groupby path, distributed verify)."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.dedup import (dedup_ngram_jaccard,
                                          jaccard_word_ngrams)

    rows = []
    for i in range(60):
        rows.append({"doc_id": i,
                     "text": f"alpha {i} beta {i*31} gamma delta "
                             f"epsilon {i**2} zeta eta"})
    base = "the quick brown fox jumps over the lazy dog again and again"
    for i, sfx in enumerate([" one", " two", " entirely different tail "
                             "with many extra words appended here"]):
        rows.append({"doc_id": 300 + i, "text": base + sfx})
    ds = rd.from_items(rows)

    brute = sorted(
        (a["doc_id"], b["doc_id"])
        for a, b in itertools.combinations(rows, 2)
        if jaccard_word_ngrams(a["text"], b["text"]) >= 0.5)

    def norm(df: pd.DataFrame) -> list[tuple]:
        return sorted(zip(df["id_a"].astype(int), df["id_b"].astype(int)))

    local = norm(dedup_ngram_jaccard(ds, "text", "doc_id",
                                     threshold=0.5).to_pandas())
    # one cap gates the docs and the verify's candidate pairs: here
    # fewer pairs than docs, so one below the doc count routes the docs
    # alone to the exchange
    monkeypatch.setattr(dsutil, "DOC_ROWS", len(rows) - 1)
    dist = norm(dedup_ngram_jaccard(ds, "text", "doc_id",
                                    threshold=0.5).to_pandas())
    monkeypatch.setattr(dsutil, "DOC_ROWS", 0)
    dist2 = norm(dedup_ngram_jaccard(ds, "text", "doc_id",
                                     threshold=0.5).to_pandas())
    assert local == dist == dist2 == brute
    assert (300, 301) in brute


def test_heavy_hitters_exact_and_sketch_bound(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.sketch import heavy_hitters

    rng = np.random.default_rng(5)
    # Zipf-ish: many distinct values, a few heavy ones
    vals = np.concatenate([
        rng.integers(0, 50_000, 40_000),        # long tail
        np.repeat(np.arange(10) * 7, 400),      # 10 heavy hitters
    ])
    rng.shuffle(vals)
    ds = rd.from_pandas(pd.DataFrame({"v": vals.astype(np.int64)}))

    exp = (pd.Series(vals).value_counts().rename_axis("v")
           .reset_index(name="cnt"))
    exp = exp.sort_values(["cnt", "v"], ascending=[False, True],
                          kind="stable").head(10).reset_index(drop=True)

    # narrow sketch (m far below distinct count) must still be exact —
    # certificate + recount, or the documented fallback
    for m in (256, 65_536):
        got = heavy_hitters(ds, "v", k=10, m=m)
        assert got["v"].tolist() == exp["v"].tolist(), m
        assert got["cnt"].tolist() == exp["cnt"].tolist(), m


def test_rollup_sums_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import rollup_sums

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 4000),
        "b": rng.choice(["p", "q"], 4000),
        "v": rng.normal(5, 2, 4000).round(2),
    })
    got = rollup_sums(rd.from_pandas(df), ["a", "b"], "v", scale=100)
    c = np.rint(df["v"] * 100).astype(np.int64)
    fine = df.assign(c=c).groupby(["a", "b"], as_index=False).agg(
        sum_c=("c", "sum"), n_rows=("c", "size"))
    for _, r in fine.iterrows():
        row = got[(got["a"] == r["a"]) & (got["b"] == r["b"])]
        assert int(row["sum_c"].iloc[0]) == r["sum_c"]
        assert int(row["n_rows"].iloc[0]) == r["n_rows"]
    lvl1 = got[(got["b"] == "ALL") & (got["a"] != "ALL")]
    assert len(lvl1) == 3
    assert lvl1["sum_c"].sum() == c.sum()
    grand = got[(got["a"] == "ALL") & (got["b"] == "ALL")]
    assert int(grand["n_rows"].iloc[0]) == 4000


def test_kmeans_assign_stats_matches_brute(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.ann import _normalize, kmeans_assign_stats

    rng = np.random.default_rng(9)
    n, d = 300, 16
    V = rng.normal(size=(n, d))
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [v for v in V]})
    got = kmeans_assign_stats(rd.from_pandas(df), n_centroids=5)

    Cn = _normalize(V[:5])
    cid = np.argmax(V @ Cn.T, axis=1)
    q = np.floor(V * 1e6 + 0.5).astype(np.int64)
    chk = q @ np.arange(1, d + 1, dtype=np.int64)
    exp = (pd.DataFrame({"cid": cid, "chk": chk})
           .groupby("cid", as_index=False)
           .agg(n_vecs=("chk", "size"), sum_chk=("chk", "sum")))
    assert np.array_equal(got["cid"], exp["cid"])
    assert np.array_equal(got["n_vecs"], exp["n_vecs"])
    assert np.array_equal(got["sum_chk"], exp["sum_chk"])


def test_q26_ivf_nprobe_recall_bound(ray_session):
    """q26 is approximate by design (nprobe=14 of 32 distinct-row
    Hadamard-centroid lists; the routing is oracle-exact, the recall
    is not 1); its recall vs the exact top-k is deterministic for the
    fixed driver fixture. Enforce the documented bound (measured
    0.76/0.88/0.72 at sf0.001/0.01/0.1) so a routing or probe
    regression fails loudly."""
    import pandas as pd

    import __ray_entry__ as E

    sf = "/root/testdata/sf0.001"
    approx = E._q26_ann_ivf_indexed(sf)
    if not isinstance(approx, pd.DataFrame):
        approx = approx.to_pandas()
    approx = approx.rename(columns={"q": "qid", "nid": "neighbor_id"})
    exact = E._q23_ivf(sf)
    hits = len(set(map(tuple, approx[["qid", "neighbor_id"]].values))
               & set(map(tuple, exact[["qid", "neighbor_id"]].values)))
    assert hits / len(exact) >= 0.7


def test_cube_sums_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import cube_sums

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 500),
        "b": rng.choice(["p", "q"], 500),
        "c": rng.choice(["m", "n"], 500),
        "v": rng.integers(0, 10000, 500) / 100.0,
    })
    got = cube_sums(rd.from_pandas(df), ["a", "b", "c"], "v", scale=100)
    # 8 grouping sets, every one checked against a pandas groupby
    cents = np.rint(df["v"].to_numpy() * 100).astype(np.int64)
    dfc = df.assign(_c=cents)
    from itertools import combinations
    n_sets = 0
    for lvl in range(3, -1, -1):
        for kept in combinations(["a", "b", "c"], lvl):
            kept = list(kept)
            sel = got
            for k in ["a", "b", "c"]:
                sel = sel[sel[k] == "ALL"] if k not in kept \
                    else sel[sel[k] != "ALL"]
            if kept:
                exp = dfc.groupby(kept, as_index=False).agg(
                    sum_c=("_c", "sum"), n_rows=("_c", "size"))
                merged = sel.merge(exp, on=kept, suffixes=("", "_e"))
                assert len(merged) == len(exp) == len(sel)
                assert (merged["sum_c"] == merged["sum_c_e"]).all()
                assert (merged["n_rows"] == merged["n_rows_e"]).all()
            else:
                assert len(sel) == 1
                assert sel["sum_c"].iloc[0] == cents.sum()
                assert sel["n_rows"].iloc[0] == len(df)
            n_sets += 1
    assert n_sets == 8


def test_grouped_moment_stats_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import grouped_moment_stats

    rng = np.random.default_rng(11)
    base = rng.integers(0, 5000, 800) / 100.0
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c", "d"], 800),
        # correlated pair so corr is far from 0 and sign-checked
        "x": base,
        "y": np.rint((base * 0.6 + rng.integers(0, 2000, 800) / 100.0)
                     * 100) / 100.0,
    })
    got = grouped_moment_stats(rd.from_pandas(df), "g", "x", "y",
                               scale=100).set_index("g")
    # exact fixed-point moments -> compare against pandas on the SAME
    # quantized integers (ddof=1 sample statistics)
    dfq = df.assign(xq=np.rint(df.x * 100) / 100,
                    yq=np.rint(df.y * 100) / 100)
    for g, grp in dfq.groupby("g"):
        assert got.loc[g, "n_rows"] == len(grp)
        assert got.loc[g, "stddev_x"] == pytest.approx(
            grp["xq"].std(ddof=1), rel=1e-12)
        assert got.loc[g, "corr_xy"] == pytest.approx(
            grp["xq"].corr(grp["yq"]), rel=1e-10)
        assert got.loc[g, "corr_xy"] > 0.3  # planted correlation


def test_grouping_set_sums_arbitrary_sets(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import grouping_set_sums

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 300),
        "b": rng.choice(["p", "q", "r"], 300),
        "v": rng.integers(0, 1000, 300) / 100.0,
    })
    # SQL: GROUP BY GROUPING SETS ((a), (b), ()) — not a rollup/cube
    got = grouping_set_sums(rd.from_pandas(df), ["a", "b"],
                            [["a"], ["b"], []], "v", scale=100)
    cents = np.rint(df["v"].to_numpy() * 100).astype(np.int64)
    dfc = df.assign(_c=cents)
    by_a = got[(got["a"] != "ALL") & (got["b"] == "ALL")]
    assert len(by_a) == dfc["a"].nunique()
    exp_a = dfc.groupby("a")["_c"].sum()
    for _, row in by_a.iterrows():
        assert row["sum_c"] == exp_a[row["a"]]
    by_b = got[(got["b"] != "ALL") & (got["a"] == "ALL")]
    assert len(by_b) == dfc["b"].nunique()
    total = got[(got["a"] == "ALL") & (got["b"] == "ALL")]
    assert len(total) == 1 and total["sum_c"].iloc[0] == cents.sum()
    assert len(got) == len(by_a) + len(by_b) + 1  # no finest level


def test_gram_matrix_matches_numpy(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.ann import gram_matrix

    rng = np.random.default_rng(5)
    d, n = 8, 300
    M = (rng.standard_normal((n, d)) * 0.2).astype(np.float32)
    df = pd.DataFrame({"embedding": list(M)})
    got = gram_matrix(rd.from_pandas(df), "embedding",
                      scale=1_000_000, batch_size=64)
    Q = np.floor(M.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    G = Q.T @ Q
    assert len(got) == d * (d + 1) // 2
    for _, r in got.iterrows():
        assert r["s"] == G[r["i"] - 1, r["j"] - 1]
    # symmetric part never emitted
    assert (got["i"] <= got["j"]).all()


def test_profile_numeric_with_nulls(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.stats import profile_numeric

    df = pd.DataFrame({
        "a": [1.25, np.nan, -3.5, 7.0, np.nan],
        "b": [0.01, 0.02, 0.03, 0.04, 0.05],
    })
    got = profile_numeric(rd.from_pandas(df), ["a", "b"],
                          scale=100).set_index("col")
    assert got.loc["a", "n_rows"] == 5
    assert got.loc["a", "n_nulls"] == 2
    assert got.loc["a", "vmin"] == -3.5 and got.loc["a", "vmax"] == 7.0
    assert got.loc["a", "sum_c"] == round(1.25 * 100) + round(-3.5 * 100) + 700
    assert got.loc["b", "n_nulls"] == 0
    assert got.loc["b", "sum_c"] == 15


def test_pca_from_gram_recovers_principal_axis(ray_session):
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.ann import gram_matrix, pca_from_gram

    rng = np.random.default_rng(9)
    d, n = 6, 2000
    axis = np.zeros(d)
    axis[2] = 1.0  # variance planted on dimension 3
    M = (rng.standard_normal((n, 1)) * 0.3) @ axis[None, :] \
        + rng.standard_normal((n, d)) * 0.01
    df = pd.DataFrame({"embedding": list(M.astype(np.float32))})
    gram = gram_matrix(rd.from_pandas(df), "embedding",
                       scale=1_000_000, batch_size=256)
    w, V = pca_from_gram(gram, n_rows=n, k=2)
    assert w[0] > 10 * w[1]  # one dominant direction
    assert abs(V[2, 0]) > 0.99  # and it is the planted axis


def test_dedup_incremental_matches_brute(ray_session, tmp_path):
    """Index build + delta resolution vs a brute pandas resolution,
    with keys engineered to hit every case: key only in history, key
    only in the delta (with and without internal dups), key in both."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.dedup import (dedup_exact_incremental,
                                          dedup_index_build)

    rng = np.random.default_rng(13)
    keys = [f"k{j}" for j in range(40)]
    old = pd.DataFrame({
        "key": rng.choice(keys[:25], 300),
        "id": np.arange(1000, 1300, dtype=np.int64)})
    new = pd.DataFrame({
        "key": rng.choice(keys[10:], 200),
        "id": np.arange(2000, 2200, dtype=np.int64)})

    path = str(tmp_path / "idx")
    man = dedup_index_build(rd.from_pandas(old).repartition(5),
                            "key", "id", path, n_buckets=8)
    assert int(man["n_keys"].sum()) == old["key"].nunique()

    got = dedup_exact_incremental(
        rd.from_pandas(new).repartition(7), path, "key", "id",
        n_buckets=8).to_pandas().sort_values("key", ignore_index=True)

    canon_old = old.groupby("key")["id"].min()
    exp = new.groupby("key", as_index=False).agg(
        canon_new=("id", "min"), n_new=("id", "size"))
    exp["canonical_id"] = np.where(
        exp["key"].isin(canon_old.index),
        canon_old.reindex(exp["key"]).fillna(0).to_numpy(),
        exp["canon_new"]).astype(np.int64)
    exp["from_index"] = exp["key"].isin(canon_old.index) \
        .to_numpy().astype(np.int64)
    exp = exp.sort_values("key", ignore_index=True)
    assert got["key"].tolist() == exp["key"].tolist()
    assert got["canonical_id"].tolist() == exp["canonical_id"].tolist()
    assert got["from_index"].tolist() == exp["from_index"].tolist()
    assert got["n_new"].tolist() == exp["n_new"].tolist()


def test_minhash_incremental_matches_brute(ray_session, tmp_path):
    """Index build + delta probe/verify vs a brute cross-shard exact
    n-gram Jaccard; planted near-dups sit well above threshold so the
    LSH probe must find every pair (q19's band-miss bound)."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.dedup import (jaccard_ngrams,
                                          minhash_incremental,
                                          minhash_index_build)

    rng = np.random.default_rng(31)
    alpha = np.array(list("abcdefghij "))
    base = ["".join(rng.choice(alpha, 80)) for _ in range(30)]
    texts = list(base)
    # plant near-dups of old docs (even ids) into the new shard slots
    texts += [base[2 * j][:-3] + "xyz" for j in range(5)]
    ids = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    old_df = df[df["doc_id"] % 2 == 0]
    new_df = df[df["doc_id"] % 2 == 1]

    path = str(tmp_path / "mh")
    minhash_index_build(rd.from_pandas(old_df).repartition(4),
                        "text", "doc_id", path, n_buckets=8)
    got = minhash_incremental(rd.from_pandas(new_df).repartition(3),
                              path, "text", "doc_id",
                              threshold=0.6, n_buckets=8)

    exp = []
    for _, nr in new_df.iterrows():
        for _, orow in old_df.iterrows():
            j = jaccard_ngrams(nr["text"], orow["text"])
            if j >= 0.6:
                exp.append((nr["doc_id"], orow["doc_id"], j))
    exp = sorted(exp)
    assert list(map(tuple, got[["id_new", "id_old"]].values)) \
        == [(a, b) for a, b, _ in exp]
    assert np.allclose(got["jaccard"].to_numpy(),
                       [j for _, _, j in exp], rtol=0, atol=0)


def test_minhash_incremental_pairs_cap(ray_session, tmp_path):
    import pandas as pd
    import pytest
    import ray.data as rd

    from proj_ray.functions.dedup import (minhash_incremental,
                                          minhash_index_build)

    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64),
                       "text": ["same text for everyone here ok"] * 6})
    path = str(tmp_path / "mh")
    minhash_index_build(rd.from_pandas(df[df.doc_id % 2 == 0]),
                        "text", "doc_id", path, n_buckets=4)
    with pytest.raises(ValueError, match="pairs_cap"):
        minhash_incremental(rd.from_pandas(df[df.doc_id % 2 == 1]),
                            path, "text", "doc_id", n_buckets=4,
                            pairs_cap=2)


def test_ivf_append_equals_full_build(ray_session, tmp_path):
    """Probing a build+append index must equal probing a single build
    over the union — the losslessness contract of ivf_append."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.ann import (ann_ivf_index,
                                        formula_centroids, ivf_append,
                                        ivf_build)

    rng = np.random.default_rng(17)
    n, d = 600, 16
    M = rng.standard_normal((n, d))
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": list(M.astype(np.float64))})
    C = formula_centroids(8, d)
    Q = M[:4] + 0.01

    p_full = str(tmp_path / "full")
    ivf_build(rd.from_pandas(df), p_full, centroids=C,
              quantize=1_000_000)
    full = ann_ivf_index(p_full, Q, k=5, nprobe=3, quantize=1_000_000)

    p_inc = str(tmp_path / "inc")
    ivf_build(rd.from_pandas(df[df.vec_id % 2 == 0]), p_inc,
              centroids=C, quantize=1_000_000)
    ivf_append(rd.from_pandas(df[df.vec_id % 2 == 1]), p_inc,
               quantize=1_000_000)
    inc = ann_ivf_index(p_inc, Q, k=5, nprobe=3, quantize=1_000_000)

    pd.testing.assert_frame_equal(full.reset_index(drop=True),
                                  inc.reset_index(drop=True))
