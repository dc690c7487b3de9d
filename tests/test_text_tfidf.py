"""TF-IDF top-k: df correctness, brute scoring parity, determinism."""
import numpy as np
import pandas as pd


def test_tfidf_topk_matches_brute(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import tfidf_topk

    rng = np.random.default_rng(5)
    vocab = [f"w{j}" for j in range(12)]
    docs = [" ".join(rng.choice(vocab, rng.integers(3, 30)))
            for _ in range(200)]
    df_in = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                          "text": docs})
    got = tfidf_topk(rd.from_pandas(df_in), k=3).to_pandas() \
        .sort_values(["doc_id", "rk"]).reset_index(drop=True)

    # brute: pandas end-to-end, same fixed-point convention
    tok = df_in.assign(term=df_in["text"].str.split(" ")) \
        .explode("term")
    tf = tok.groupby(["doc_id", "term"], as_index=False).size()
    dfc = tok.drop_duplicates(["doc_id", "term"]) \
        .groupby("term").size()
    n = len(df_in)
    tf["score_f"] = np.floor(
        tf["size"].to_numpy(np.float64)
        * np.log(float(n) / dfc[tf["term"]].to_numpy(np.float64))
        * 1e6 + 0.5).astype(np.int64)
    tf = tf.sort_values(["doc_id", "score_f", "term"],
                        ascending=[True, False, True], kind="stable")
    tf["rk"] = tf.groupby("doc_id").cumcount() + 1
    exp = tf[tf["rk"] <= 3].reset_index(drop=True)
    assert len(got) == len(exp)
    assert np.array_equal(got["doc_id"], exp["doc_id"])
    assert list(got["term"]) == list(exp["term"])
    assert np.array_equal(got["score_f"], exp["score_f"])


def test_document_frequencies_vocab_cap(ray_session):
    import pytest
    import ray.data as rd

    from proj_ray.functions.text import document_frequencies

    df_in = pd.DataFrame({"doc_id": [0, 1], "text": ["a b c", "b c d"]})
    df = document_frequencies(rd.from_pandas(df_in))
    assert df == {"a": 1, "b": 2, "c": 2, "d": 1}
    with pytest.raises(ValueError):
        document_frequencies(rd.from_pandas(df_in), vocab_cap=2)


def test_cooccurrence_pmi_matches_brute(ray_session):
    import itertools

    import ray.data as rd

    from proj_ray.functions.text import cooccurrence_pmi

    rng = np.random.default_rng(11)
    vocab = [f"w{j}" for j in range(10)]
    docs = [" ".join(rng.choice(vocab, rng.integers(2, 12)))
            for _ in range(150)]
    df_in = pd.DataFrame({"doc_id": np.arange(150, dtype=np.int64),
                          "text": docs})
    got = cooccurrence_pmi(rd.from_pandas(df_in), k=15)

    # brute force in plain python
    n = len(docs)
    dfc: dict = {}
    cab: dict = {}
    for d in docs:
        terms = sorted(set(d.split(" ")))
        for t in terms:
            dfc[t] = dfc.get(t, 0) + 1
        for a, b in itertools.combinations(terms, 2):
            cab[(a, b)] = cab.get((a, b), 0) + 1
    rows = []
    for (a, b), c in cab.items():
        pmi = np.log(float(n) * float(c)
                     / (float(dfc[a]) * float(dfc[b])))
        rows.append((a, b, c, int(np.floor(pmi * 1e6 + 0.5))))
    exp = pd.DataFrame(rows, columns=["ta", "tb", "c_ab", "pmi_f"]) \
        .sort_values(["pmi_f", "ta", "tb"],
                     ascending=[False, True, True]).head(15) \
        .reset_index(drop=True)
    assert list(got["ta"]) == list(exp["ta"])
    assert list(got["tb"]) == list(exp["tb"])
    assert np.array_equal(got["c_ab"], exp["c_ab"])
    assert np.array_equal(got["pmi_f"], exp["pmi_f"])


def test_substring_dup_stats_matches_brute(ray_session):
    """Planted exact duplicates across documents: per-doc duplicated
    coverage and gram counts must equal a brute-force dict-of-grams
    computation (interval union semantics, min_count=2 global)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.text import substring_dup_stats

    rng = np.random.default_rng(13)
    alpha = np.array(list("abcdefghij"))
    shared = "the quick brown fox jumps over the lazy dog again"
    docs = []
    for i in range(40):
        base = "".join(rng.choice(alpha, rng.integers(60, 200)))
        if i % 3 == 0:
            at = int(rng.integers(0, max(1, len(base) - 1)))
            base = base[:at] + shared + base[at:]
        if i % 7 == 0:
            base = base + base[:35]  # intra-doc repeat
        docs.append(base)
    k = 12
    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                       "text": docs})
    got = substring_dup_stats(
        rd.from_pandas(df), k=k).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)

    from collections import Counter
    c = Counter()
    for t in docs:
        for i in range(len(t) - k + 1):
            c[t[i:i + k]] += 1
    rows = []
    for d, t in enumerate(docs):
        pos = [i for i in range(len(t) - k + 1) if c[t[i:i + k]] >= 2]
        if not pos:
            continue
        cover = 0
        prev_end = -1
        for p in pos:
            cover += max(0, p + k - max(p, prev_end))
            prev_end = max(prev_end, p + k)
        rows.append((d, cover, len(pos)))
    want = pd.DataFrame(rows, columns=["doc_id", "dup_chars",
                                       "dup_grams"])
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["dup_chars"].tolist() == want["dup_chars"].tolist()
    assert got["dup_grams"].tolist() == want["dup_grams"].tolist()


def test_substring_dup_stride_subsample(ray_session):
    """stride=3 keeps only every 3rd window start: dup_grams shrinks
    accordingly and coverage never exceeds the exact run's."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.functions.text import substring_dup_stats

    df = pd.DataFrame({
        "doc_id": np.arange(2, dtype=np.int64),
        "text": ["abcdefghijklmnopqrstuvwxyz0123456789" * 3] * 2})
    exact = substring_dup_stats(rd.from_pandas(df), k=10).to_pandas()
    sub = substring_dup_stats(rd.from_pandas(df), k=10,
                              stride=3).to_pandas()
    e = exact.set_index("doc_id")
    s = sub.set_index("doc_id")
    assert (s["dup_grams"] < e["dup_grams"]).all()
    assert (s["dup_chars"] <= e["dup_chars"]).all()
    assert (s["dup_chars"] > 0).all()


def test_document_frequencies_count_tokens(ray_session):
    """Both sentinels must survive the combine's pandas groupby —
    regression for the NUL-truncating object-key hashtable (two
    NUL-prefixed sentinels used to merge into one group)."""
    import ray.data as rd

    from proj_ray.functions.text import document_frequencies

    df_in = pd.DataFrame({"doc_id": [0, 1], "text": ["a b c", "b c d"]})
    df, n_docs, n_tokens = document_frequencies(
        rd.from_pandas(df_in), count_docs=True, count_tokens=True)
    assert df == {"a": 1, "b": 2, "c": 2, "d": 1}
    assert n_docs == 2 and n_tokens == 6
    df2, n_tokens2 = document_frequencies(
        rd.from_pandas(df_in), count_tokens=True)
    assert df2 == df and n_tokens2 == 6


def test_bm25_topk_matches_brute(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import bm25_topk

    rng = np.random.default_rng(7)
    vocab = [f"w{j}" for j in range(15)]
    docs = [" ".join(rng.choice(vocab, rng.integers(2, 40)))
            for _ in range(250)]
    df_in = pd.DataFrame({"doc_id": np.arange(250, dtype=np.int64),
                          "text": docs})
    q = ["w1", "w9", "w14"]
    got = bm25_topk(rd.from_pandas(df_in).repartition(6), q, k=8)

    # brute force with the same fixed-point-per-term convention
    k1, b, scale = 1.2, 0.75, 1_000_000
    tok = df_in.assign(term=df_in["text"].str.split(" ")) \
        .explode("term")
    n = float(len(df_in))
    dl = tok.groupby("doc_id").size()
    avgdl = float(dl.sum()) / n
    dfc = tok.drop_duplicates(["doc_id", "term"]).groupby("term").size()
    scores = {}
    for t in q:
        idf = np.log(1.0 + (n - float(dfc[t]) + 0.5)
                     / (float(dfc[t]) + 0.5))
        tf = tok[tok["term"] == t].groupby("doc_id").size()
        for d, c in tf.items():
            tff = float(c)
            dld = float(dl[d])
            w = idf * ((tff * (k1 + 1.0))
                       / (tff + k1 * ((1.0 - b) + b * (dld / avgdl))))
            scores[d] = scores.get(d, 0) \
                + int(np.floor(w * scale + 0.5))
    exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    assert list(got["doc_id"]) == [d for d, _ in exp]
    assert list(got["score_f"]) == [s for _, s in exp]
    assert list(got["rk"]) == list(range(1, 9))


def test_bm25_topk_empty_query_and_no_matches(ray_session):
    import ray.data as rd

    from proj_ray.functions.text import bm25_topk

    df_in = pd.DataFrame({"doc_id": [0, 1], "text": ["a b", "c d"]})
    out = bm25_topk(rd.from_pandas(df_in), [], k=5)
    assert len(out) == 0
    out = bm25_topk(rd.from_pandas(df_in), ["zzz"], k=5)
    assert len(out) == 0


def test_bm25_partitioning_invariance(ray_session):
    """The per-batch top-k prune must never change the global top-k:
    identical results whatever the block layout."""
    import ray.data as rd

    from proj_ray.functions.text import bm25_topk

    rng = np.random.default_rng(21)
    vocab = [f"w{j}" for j in range(10)]
    docs = [" ".join(rng.choice(vocab, rng.integers(2, 30)))
            for _ in range(300)]
    df_in = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                          "text": docs})
    q = ["w2", "w8"]
    a = bm25_topk(rd.from_pandas(df_in).repartition(1), q, k=7)
    b = bm25_topk(rd.from_pandas(df_in).repartition(11), q, k=7)
    pd.testing.assert_frame_equal(a, b)
