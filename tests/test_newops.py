"""Round-5 additions: JSON extraction, sequence packing, bloom
semi-join, gopher quality rules."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def sf_dir():
    return "/root/testdata/sf0.001"


def test_extract_json_int64_flat_and_nested():
    from proj_ray.functions.jsonops import extract_json_int64

    s = pd.Series([
        '{"k": 87}',
        '{"a": 1, "k": -3}',
        '{"a": 1}',                       # missing -> default
        '{"outer": {"k": 9}, "k": 5}',    # nested: loads fallback
        '{"k": "text"}',                  # non-int -> default
        '{"esc": "\\"k\\": 7", "k": 2}',  # escaped quote trap
        'not json',
    ])
    out = extract_json_int64(s, "k", default=0)
    assert out.tolist() == [87, -3, 0, 5, 0, 2, 0]
    assert out.dtype == np.int64


def test_json_key_stats_matches_pandas(ray_session, sf_dir):
    import json

    import ray.data as rd

    from proj_ray.functions.jsonops import json_key_stats

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])
    out = json_key_stats(ds, "props", "k", "event_type").to_pandas()
    raw = pd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_type", "props"])
    raw["k"] = raw["props"].map(lambda t: json.loads(t).get("k", 0))
    exp = raw.groupby("event_type")["k"].agg(
        ["count", "sum", "max"]).reset_index()
    m = out.sort_values("event_type").reset_index(drop=True)
    e = exp.sort_values("event_type").reset_index(drop=True)
    assert m["n"].tolist() == e["count"].tolist()
    assert m["sum_k"].tolist() == e["sum"].tolist()
    assert m["max_k"].tolist() == e["max"].tolist()


def test_pack_sequences_prefix_sum_parity(ray_session):
    """Distributed packing == single-process concat-and-chunk."""
    import ray.data as rd

    from proj_ray.functions.packing import pack_sequences
    from proj_ray.functions.text import simple_token_count

    rng = np.random.RandomState(7)
    rows = [{"doc_id": int(i),
             "text": " ".join(["w"] * int(rng.randint(0, 40)))}
            for i in range(500)]
    L = 32
    out = (pack_sequences(rd.from_items(rows), "doc_id", "text",
                          seq_len=L, bucket_size=64)
           .to_pandas().sort_values("seq_id").reset_index(drop=True))

    # serial oracle
    df = pd.DataFrame(rows)
    df["t"] = simple_token_count(df["text"])
    df = df[df["t"] > 0].sort_values("doc_id")
    end = df["t"].cumsum().to_numpy()
    start = end - df["t"].to_numpy()
    recs = []
    for d, s, e in zip(df["doc_id"], start, end):
        for seq in range(s // L, (e - 1) // L + 1):
            recs.append((seq, d, min(e, (seq + 1) * L)
                         - max(s, seq * L)))
    ser = pd.DataFrame(recs, columns=["seq_id", "doc", "fill"])
    exp = ser.groupby("seq_id").agg(
        n_docs=("doc", "size"), min_doc=("doc", "min"),
        max_doc=("doc", "max"), n_tokens=("fill", "sum")).reset_index()
    pd.testing.assert_frame_equal(
        out.astype(np.int64), exp.astype(np.int64))
    # every sequence except the last is exactly full
    full = out.sort_values("seq_id")["n_tokens"].to_numpy()
    assert (full[:-1] == L).all()


def test_bloom_semi_join_exact_and_pruning(ray_session):
    import ray.data as rd

    from proj_ray.functions.bloomjoin import (bloom_build,
                                              bloom_filter_ds,
                                              bloom_semi_join)

    build_keys = list(range(0, 10000, 97))  # 104 keys
    probe = rd.from_items(
        [{"k": int(i), "v": int(i) * 2} for i in range(10000)])
    build = rd.from_items([{"bk": int(k)} for k in build_keys])

    out = bloom_semi_join(probe, build, "k", "bk").to_pandas()
    assert sorted(out["k"]) == build_keys           # exact, no FPs
    assert (out["v"] == out["k"] * 2).all()         # payload intact

    # the bloom itself prunes hard: candidates ~= matches at this m/n
    ref, m, k = bloom_build(build, "bk")
    cand = bloom_filter_ds(probe, "k", ref, m, k).count()
    assert cand < 2 * len(build_keys)

    # scale path (groupby OR-combine) builds the identical bitmap
    import ray
    ref2, _, _ = bloom_build(build, "bk", combine_ways=4)
    assert np.array_equal(ray.get(ref), ray.get(ref2))


def test_bloom_anti_join_exact(ray_session):
    import ray.data as rd

    from proj_ray.functions.bloomjoin import bloom_anti_join

    probe = rd.from_items(
        [{"k": int(i), "v": int(i) * 3} for i in range(5000)])
    build_keys = set(range(0, 5000, 3))
    build = rd.from_items([{"bk": int(k)} for k in build_keys])

    out = bloom_anti_join(probe, build, "k", "bk").to_pandas()
    exp = sorted(set(range(5000)) - build_keys)
    assert sorted(out["k"]) == exp
    assert (out["v"] == out["k"] * 3).all()


def test_ngram_decontaminate_matches_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.decontam import ngram_decontaminate

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(30)]
    bench_rows = [{"doc_id": 1000 + i,
                   "text": " ".join(rng.choice(vocab, 12))}
                  for i in range(20)]
    corpus_rows = [{"doc_id": i, "text": " ".join(rng.choice(vocab, 15))}
                   for i in range(200)]
    # plant a verbatim 4-gram from bench doc 0 into corpus doc 7
    planted = " ".join(bench_rows[0]["text"].split(" ")[3:7])
    corpus_rows[7]["text"] += " " + planted

    n = 4
    out = (ngram_decontaminate(rd.from_items(corpus_rows),
                               rd.from_items(bench_rows), n=n)
           .to_pandas().set_index("doc_id").sort_index())

    def grams(t):
        ws = t.split(" ")
        return {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}

    bg = set().union(*(grams(r["text"]) for r in bench_rows))
    exp = {}
    for r in corpus_rows:
        g = grams(r["text"])
        c = len(g & bg)
        if c:
            exp[r["doc_id"]] = (len(g), c)
    assert 7 in exp
    assert sorted(out.index) == sorted(exp)
    for d, (ng, nc) in exp.items():
        assert out.loc[d, "n_grams"] == ng
        assert out.loc[d, "n_contam"] == nc


def test_label_centroid_outliers_matches_numpy(ray_session):
    import ray.data as rd

    from proj_ray.functions.ann import label_centroid_outliers

    rng = np.random.RandomState(3)
    V = rng.randn(300, 8).astype(np.float32)
    lab = rng.randint(0, 4, 300)
    rows = [{"vec_id": int(i), "embedding": V[i].tolist(),
             "label": int(lab[i])} for i in range(300)]
    out = (label_centroid_outliers(rd.from_items(rows), k=3)
           .to_pandas().sort_values(["label", "rk"])
           .reset_index(drop=True))

    Q = np.floor(V.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    exp = []
    for lv in range(4):
        m = lab == lv
        S = Q[m].sum(axis=0)
        c = np.sign(S) * (np.abs(S) // m.sum())
        d2 = ((Q[m] - c) ** 2).sum(axis=1)
        ids = np.arange(300)[m]
        order = np.lexsort((ids, -d2))[:3]
        for rk, o in enumerate(order, 1):
            exp.append((lv, ids[o], d2[o], rk))
    expdf = (pd.DataFrame(exp, columns=["label", "vec_id",
                                        "dist2", "rk"])
             .astype(np.int64))
    pd.testing.assert_frame_equal(out.astype(np.int64), expdf)


def test_frequent_gram_coverage_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.decontam import frequent_gram_coverage

    rng = np.random.RandomState(5)
    vocab = [f"t{i}" for i in range(12)]
    rows = [{"doc_id": i, "text": " ".join(rng.choice(vocab, 20))}
            for i in range(150)]
    T = 25
    out = (frequent_gram_coverage(rd.from_items(rows), n=2,
                                  min_count=T)
           .to_pandas().set_index("doc_id").sort_index())

    from collections import Counter
    cnt = Counter()
    for r in rows:
        ws = r["text"].split(" ")
        cnt.update(" ".join(ws[i:i + 2]) for i in range(len(ws) - 1))
    freq = {g for g, c in cnt.items() if c >= T}
    assert freq and len(freq) < len(cnt)
    for r in rows:
        ws = r["text"].split(" ")
        grams = [" ".join(ws[i:i + 2]) for i in range(len(ws) - 1)]
        nf = sum(g in freq for g in grams)
        assert out.loc[r["doc_id"], "n_grams"] == len(grams)
        assert out.loc[r["doc_id"], "freq_ppm"] == (
            1_000_000 * nf // len(grams))


def test_clip_retrieval_matches_bruteforce(ray_session):
    """Distributed MIPS top-k == driver-side exact computation, and
    dup pairs (img97 duplicates img96) embed identically."""
    from proj_ray.images import (ImageEmbedder, clip_image_topk, decode,
                                 images_dataset, make_images_for)

    N, QIDS, K = 200, np.array([5, 96]), 3
    emb = images_dataset(N, parallelism=4).map_batches(
        ImageEmbedder, batch_format="numpy", batch_size=64,
        concurrency=2)
    out = (clip_image_topk(emb, QIDS, k=K).to_pandas()
           .sort_values(["qid", "rk"]).reset_index(drop=True))

    enc = ImageEmbedder()
    src = make_images_for(np.arange(N))
    E = np.stack([enc.embed_pixels(decode(src["bytes"][j],
                                          src["fmt"][j]))
                  for j in range(N)])
    assert (E[96] == E[97]).all()  # duplicate invariant

    ids = np.array([f"img{i:012d}" for i in range(N)], dtype=object)
    exp = []
    for q in QIDS:
        s = E @ E[q]
        cand = np.flatnonzero(np.arange(N) != q)
        srt = cand[np.lexsort((ids[cand], -s[cand]))][:K]
        for rk, c in enumerate(srt, 1):
            exp.append((int(q), ids[c], int(s[c]), rk))
    expdf = pd.DataFrame(exp, columns=["qid", "image_id",
                                       "score", "rk"])
    pd.testing.assert_frame_equal(out, expdf)


def test_geo_clip_retrieval_matches_bruteforce(ray_session):
    """Tile-ring spatial prune + MIPS re-rank == driver-side exact."""
    from proj_ray.images import (ImageEmbedder, clip_geo_topk, decode,
                                 images_dataset, make_images_for)
    from proj_ray.tiles import tile_assign

    N, K, Z = 400, 3, 7
    src = make_images_for(np.arange(N))
    lat = np.asarray(src["lat"])
    # hotspot rows guarantee ring neighbors
    hot = np.flatnonzero(((np.arange(N) * 2654435761) % 1000 < 180)
                         & (lat != 91.0))
    QIDS = hot[:3]

    emb = images_dataset(N, parallelism=4).map_batches(
        ImageEmbedder,
        fn_constructor_kwargs=dict(passthrough=("lon", "lat")),
        batch_format="numpy", batch_size=64, concurrency=2)
    out = (clip_geo_topk(emb, QIDS, k=K, zoom=Z).to_pandas()
           .sort_values(["qid", "rk"]).reset_index(drop=True))

    enc = ImageEmbedder()
    E = np.stack([enc.embed_pixels(decode(src["bytes"][j],
                                          src["fmt"][j]))
                  for j in range(N)])
    tx, ty, _ = tile_assign(src["lon"], src["lat"], Z)
    ids = np.array([f"img{i:012d}" for i in range(N)], dtype=object)
    exp = []
    for q in QIDS:
        ring = (np.abs(tx - tx[q]) <= 1) & (np.abs(ty - ty[q]) <= 1)
        cand = np.flatnonzero(ring & (np.arange(N) != q))
        s = E @ E[q]
        srt = cand[np.lexsort((ids[cand], -s[cand]))][:K]
        for rk, c in enumerate(srt, 1):
            exp.append((int(q), ids[c], int(s[c]), rk))
    expdf = pd.DataFrame(exp, columns=["qid", "image_id",
                                       "score", "rk"])
    assert len(expdf) > 0
    pd.testing.assert_frame_equal(out, expdf)


def test_gopher_quality_rules(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import gopher_quality

    rows = [
        # healthy doc: passes
        {"doc_id": 0, "text": "the quick brown fox jumps over the "
                              "lazy dog and runs into deep forest"},
        # one word repeated: repetition rule fails
        {"doc_id": 1, "text": " ".join(["spam"] * 50) + " the and"},
        # too few words
        {"doc_id": 2, "text": "tiny doc"},
        # no [a-z] words at all -> dropped
        {"doc_id": 3, "text": "12345 67890"},
    ]
    out = (gopher_quality(rd.from_items(rows)).to_pandas()
           .set_index("doc_id"))
    assert 3 not in out.index
    assert out.loc[0, "passes"] == 1
    assert out.loc[1, "passes"] == 0
    assert out.loc[1, "top_word_ppm"] > 900_000
    assert out.loc[2, "passes"] == 0
    # integer contracts
    d0 = out.loc[0]
    assert d0["mean_wlen_milli"] == (
        sum(len(w) for w in rows[0]["text"].split()) * 1000
        // len(rows[0]["text"].split()))


def test_pack_sequences_partition_invariance(ray_session):
    """The packed output is a pure function of (docs, seq_len): bucket
    granularity and input blocking must not change a single row."""
    import ray.data as rd

    from proj_ray.functions.packing import pack_sequences

    rng = np.random.RandomState(13)
    rows = [{"doc_id": int(i),
             "text": " ".join(["x"] * int(rng.randint(0, 25)))}
            for i in range(400)]

    def run(bucket_size, parallelism):
        ds = rd.from_items(rows, override_num_blocks=parallelism)
        return (pack_sequences(ds, "doc_id", "text", seq_len=64,
                               bucket_size=bucket_size)
                .to_pandas().sort_values("seq_id")
                .reset_index(drop=True).astype(np.int64))

    base = run(1 << 6, 2)
    for bs, par in [(1 << 4, 7), (1 << 10, 3), (37, 5)]:
        pd.testing.assert_frame_equal(run(bs, par), base)


def test_bloom_joins_parameter_invariance(ray_session):
    """Semi/anti results are exact regardless of bloom size or hash
    count (the bloom only prunes)."""
    import ray.data as rd

    from proj_ray.functions.bloomjoin import (bloom_anti_join,
                                              bloom_semi_join)

    probe = rd.from_items(
        [{"k": int(i % 700), "v": int(i)} for i in range(3000)])
    build = rd.from_items([{"bk": int(k)} for k in range(0, 700, 5)])

    def semi(m, kk):
        out = bloom_semi_join(probe, build, "k", "bk", m_bits=m,
                              k=kk).to_pandas()
        return out.sort_values(["k", "v"]).reset_index(drop=True)

    def anti(m, kk):
        out = bloom_anti_join(probe, build, "k", "bk", m_bits=m,
                              k=kk).to_pandas()
        return out.sort_values(["k", "v"]).reset_index(drop=True)

    s0 = semi(1 << 20, 4)
    a0 = anti(1 << 20, 4)
    assert len(s0) + len(a0) == 3000
    assert set(s0["k"]) == {k for k in range(700) if k % 5 == 0}
    # tiny bloom = high fpr: more verify work, same exact answer
    pd.testing.assert_frame_equal(semi(1 << 8, 2), s0)
    pd.testing.assert_frame_equal(anti(1 << 8, 2), a0)


def test_resample_ffill_gaps(ray_session):
    """Gap-fill parity vs a hand-built expectation with multi-bucket
    holes, and partition invariance of the partial pre-aggregation."""
    import ray.data as rd

    from proj_ray.functions.temporal import resample_ffill

    rows = []
    # user 1: events in buckets 10, 13 (gap 11-12), 14
    for b, v in [(10, 1.0), (10, 2.0), (13, 5.0), (14, 0.5)]:
        rows.append({"user_id": 1, "ts": b * 86_400_000_000 + 42,
                     "value": v})
    # user 2: single bucket (no grid beyond itself)
    rows.append({"user_id": 2, "ts": 7 * 86_400_000_000, "value": 9.99})

    def run(par):
        ds = rd.from_items(rows, override_num_blocks=par)
        return (resample_ffill(ds, "user_id", "ts", "value")
                .to_pandas().sort_values(["user_id", "bucket"])
                .reset_index(drop=True).astype(np.int64))

    out = run(1)
    exp = pd.DataFrame(
        [(1, 10, 2, 300, 2, 300),
         (1, 11, 0, 0, 2, 300),
         (1, 12, 0, 0, 2, 300),
         (1, 13, 1, 500, 1, 500),
         (1, 14, 1, 50, 1, 50),
         (2, 7, 1, 999, 1, 999)],
        columns=["user_id", "bucket", "n", "sum_c",
                 "filled_n", "filled_sum_c"]).astype(np.int64)
    pd.testing.assert_frame_equal(out, exp)
    pd.testing.assert_frame_equal(run(3), exp)


def test_top_percentile_filter_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.percentile import (percentile_cutoff,
                                               top_percentile_filter)

    rng = np.random.RandomState(17)
    vals = np.round(rng.uniform(0, 5000, 4000), 2)
    rows = [{"rid": int(i), "score": float(vals[i])}
            for i in range(4000)]
    ds = rd.from_items(rows, override_num_blocks=5)

    out = top_percentile_filter(ds, ["rid"], "score", q=0.95)

    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    k = int(np.floor(0.95 * (len(cents) - 1)))
    cut = np.sort(cents)[k]
    keep = np.flatnonzero(cents >= cut)
    order = keep[np.lexsort((keep, -cents[keep]))]
    assert out["rid"].tolist() == order.tolist()
    assert out["cents"].tolist() == cents[order].tolist()
    assert out["rk"].tolist() == list(range(1, len(order) + 1))

    # distributed-combine scale path picks the identical cutoff
    def val(df):
        return np.floor(df["score"].to_numpy(np.float64) * 100
                        + 0.5).astype(np.int64)

    c1, n1, k1 = percentile_cutoff(ds, val, 0.95)
    c2, n2, k2 = percentile_cutoff(ds, val, 0.95,
                                   distributed_combine=True)
    assert (c1, n1, k1) == (c2, n2, k2) == (int(cut), 4000, k)


def test_latest_by_key_tiebreak(ray_session):
    import ray.data as rd

    from proj_ray.functions.temporal import latest_by_key

    rows = [
        {"k": 1, "ts": 100, "eid": 7, "v": "a"},
        {"k": 1, "ts": 200, "eid": 3, "v": "b"},
        {"k": 1, "ts": 200, "eid": 9, "v": "c"},  # tie: eid wins
        {"k": 2, "ts": 50, "eid": 1, "v": "d"},
        {"k": 3, "ts": 10, "eid": 2, "v": "e"},
        {"k": 3, "ts": 9, "eid": 99, "v": "f"},   # later eid, older ts
    ]
    for par in (1, 4):
        ds = rd.from_items(rows, override_num_blocks=par)
        out = (latest_by_key(ds, "k", "ts", order_cols=("eid",))
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert out["v"].tolist() == ["c", "d", "e"]


def test_curation_pipeline_stages_and_invariance(ray_session):
    """Composed curation flow == serially applied stage logic, and the
    result is blocking-invariant."""
    import ray.data as rd

    from proj_ray.functions.curation import curation_pipeline
    from proj_ray.functions.text import gopher_signals

    rng = np.random.RandomState(23)
    vocab = ("the and for with data point value from where test "
             "alpha beta gamma delta epsilon").split()
    corpus = [{"doc_id": i, "text": " ".join(rng.choice(vocab, 30))}
              for i in range(300)]
    corpus[5]["text"] = corpus[4]["text"]          # exact dup
    corpus[9]["text"] = " ".join(["spam"] * 40)    # fails repetition
    bench = [{"doc_id": 900, "text": " ".join(rng.choice(vocab, 20))}]
    # contaminate doc 17 with a bench 4-gram
    corpus[17]["text"] += " " + " ".join(
        bench[0]["text"].split(" ")[2:6])

    def run(par):
        return (curation_pipeline(
            rd.from_items(corpus, override_num_blocks=par),
            rd.from_items(bench), seq_len=64, bucket_size=32)
            .to_pandas().sort_values("seq_id")
            .reset_index(drop=True).astype(np.int64))

    out = run(2)
    pd.testing.assert_frame_equal(run(5), out)

    # serial reference: gopher pass -> not contaminated -> dedup -> pack
    import pandas as pd2
    texts = pd2.Series([r["text"] for r in corpus])
    pos, sig = gopher_signals(texts)
    ok = set(np.asarray([corpus[p]["doc_id"] for p in pos])[
        sig["passes"].to_numpy() == 1])
    bgrams = {" ".join(bench[0]["text"].split(" ")[i:i + 4])
              for i in range(len(bench[0]["text"].split(" ")) - 3)}

    def grams(t):
        ws = t.split(" ")
        return {" ".join(ws[i:i + 4]) for i in range(len(ws) - 3)}

    surv = [r for r in corpus
            if r["doc_id"] in ok and not (grams(r["text"]) & bgrams)]
    assert 9 not in {r["doc_id"] for r in surv}
    assert 17 not in {r["doc_id"] for r in surv}
    best = {}
    for r in surv:
        best.setdefault(r["text"], r["doc_id"])
    assert 5 not in set(best.values()) and 4 in set(best.values())
    toks = sorted((d, len(t.split(" "))) for t, d in best.items())
    total = sum(t for _, t in toks)
    assert out["n_tokens"].sum() == total
    assert (out["n_tokens"].to_numpy()[:-1] == 64).all()


def test_hash_split_stats_deterministic(ray_session):
    """Split assignment is a pure function of id: stable across
    re-sharding, proportions near 8/1/1, stats exact vs pandas."""
    import ray.data as rd

    from proj_ray.functions.sample import _mix, hash_split_stats

    rows = [{"rid": int(i), "grp": f"g{i % 3}", "w": int(i) % 7}
            for i in range(3000)]

    def run(par):
        ds = rd.from_items(rows, override_num_blocks=par)
        return (hash_split_stats(ds, "rid", "grp", "w")
                .to_pandas().sort_values(["grp", "split"])
                .reset_index(drop=True))

    out = run(2)
    pd.testing.assert_frame_equal(run(6), out)

    ids = np.arange(3000)
    s = _mix(ids) % 10
    names = np.array(["train"] * 8 + ["val", "test"], dtype=object)[s]
    df = pd.DataFrame({"grp": [r["grp"] for r in rows],
                       "split": names,
                       "w": [r["w"] for r in rows]})
    exp = (df.groupby(["grp", "split"])
             .agg(n=("w", "size"), w=("w", "sum")).reset_index()
             .sort_values(["grp", "split"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out.astype({"n": np.int64, "w": np.int64}),
        exp.astype({"n": np.int64, "w": np.int64}))
    frac = (names == "train").mean()
    assert 0.75 < frac < 0.85


def test_bpe_pair_counts_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import bpe_pair_counts

    rng = np.random.RandomState(29)
    vocab = ["abba", "cab", "dede", "abc"]
    rows = [{"text": " ".join(rng.choice(vocab, 12))}
            for _ in range(120)]
    out = bpe_pair_counts(rd.from_items(rows, override_num_blocks=4),
                          k=5)

    from collections import Counter
    cnt = Counter()
    for r in rows:
        t = r["text"]
        for i in range(len(t) - 1):
            p = t[i:i + 2]
            if p.isalpha():
                cnt[p] += 1
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(out["pair"], out["n"])) == exp
    assert out["rk"].tolist() == [1, 2, 3, 4, 5]


def test_cross_source_gram_overlap_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.decontam import cross_source_gram_overlap

    rng = np.random.RandomState(31)
    vocab = [f"v{i}" for i in range(8)]
    rows = [{"source": f"s{i % 3}",
             "text": " ".join(rng.choice(vocab, 10))}
            for i in range(150)]
    out = (cross_source_gram_overlap(
        rd.from_items(rows, override_num_blocks=4), n=3)
        .to_pandas().sort_values(["src_a", "src_b"])
        .reset_index(drop=True))

    per_src = {}
    for r in rows:
        ws = r["text"].split(" ")
        per_src.setdefault(r["source"], set()).update(
            " ".join(ws[i:i + 3]) for i in range(len(ws) - 2))
    exp = []
    srcs = sorted(per_src)
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            c = len(per_src[a] & per_src[b])
            if c:
                exp.append((a, b, c))
    expdf = pd.DataFrame(exp, columns=["src_a", "src_b",
                                       "n_shared_grams"])
    assert len(expdf) > 0
    pd.testing.assert_frame_equal(
        out.astype({"n_shared_grams": np.int64}), expdf)


def test_pii_scan_redact_bruteforce(ray_session):
    import re

    import ray.data as rd

    from proj_ray.functions.text import PII_PATTERNS, pii_scan_redact

    rows = [
        {"source": "a", "text": "write to bob.r@mail.example.org now"},
        {"source": "a", "text": "hosts 10.0.0.1 and 192.168.7.250 up"},
        {"source": "b", "text": "call +1-555-0199 or +1-555-7210"},
        {"source": "b", "text": "no pii here at all"},
        {"source": "b", "text": "x@y.io via 8.8.8.8 tel +1-555-1234"},
    ]
    out = pii_scan_redact(rd.from_items(rows, override_num_blocks=3),
                          batch_size=2)

    exp = {}
    for r in rows:
        g = exp.setdefault(r["source"],
                           {"n_docs": 0, "docs_email": 0, "docs_ipv4": 0,
                            "docs_phone": 0, "tok_email": 0,
                            "tok_ipv4": 0, "tok_phone": 0,
                            "redacted_len_sum": 0})
        g["n_docs"] += 1
        red = r["text"]
        for kind, pat, rep in PII_PATTERNS:
            c = len(re.findall(pat, red))
            g[f"docs_{kind}"] += int(c > 0)
            g[f"tok_{kind}"] += c
            red = re.sub(pat, rep, red)
        g["redacted_len_sum"] += len(red)

    for _, row in out.iterrows():
        for k, v in exp[row["source"]].items():
            assert row[k] == v, (row["source"], k, row[k], v)
    assert set(out["source"]) == set(exp)
    # redaction leaves no residual matches
    assert (out["tok_email"] + out["tok_ipv4"] + out["tok_phone"]).sum() \
        == 2 + 3 + 3


def test_repetition_signals_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import repetition_signals

    rows = [
        {"source": "a", "text": "x y x y x y"},   # 2g: tot5 dist2, 3g: tot4 dist2
        {"source": "a", "text": "a b c d"},       # 2g: 0 ppm, 3g: 0 ppm
        {"source": "b", "text": "q q q q q"},     # 2g: 750000, 3g: 666666
        {"source": "b", "text": "one"},           # <2 words: excluded
    ]
    out = repetition_signals(rd.from_items(rows, override_num_blocks=2),
                             batch_size=2).set_index("source")
    a, b = out.loc["a"], out.loc["b"]
    assert (a["n_docs2"], a["mean_dup2_ppm"], a["flag2"]) == (2, 300000, 1)
    assert (a["n_docs3"], a["mean_dup3_ppm"], a["flag3"]) == (2, 250000, 1)
    assert (b["n_docs2"], b["mean_dup2_ppm"], b["flag2"]) == (1, 750000, 1)
    assert (b["n_docs3"], b["mean_dup3_ppm"], b["flag3"]) == (1, 666666, 1)
