"""Integer aHash + generic band-bucketed hamming pairs."""

import numpy as np
import pandas as pd


def test_ahash_uses_full_integer_luminance():
    # regression: 3*uint8 wraps mod 256 if luminance is computed in
    # uint8 — pin against an explicit int64 reference
    from proj_ray.images import ahash64_int, synth_pixels

    px = synth_pixels(0, 16, 16)
    p = px.astype(np.int64)
    g = 2 * p[..., 0] + 3 * p[..., 1] + p[..., 2]
    bs = g.reshape(8, 2, 8, 2).sum(axis=(1, 3))
    bits = bs.ravel() * 64 > bs.sum()
    exp = 0
    for j in range(64):
        if bits[j]:
            exp |= 1 << j
    got = int(np.uint64(np.int64(ahash64_int(px))))
    assert got == exp
    assert bs.sum() == 179200  # int64 path; uint8 wrap gave 111360


def test_band_pairs_total_recall_vs_brute(ray_session):
    import ray.data as rd

    from proj_ray.functions.dedup import hamming64, hash_band_pairs

    rng = np.random.default_rng(77)
    base = rng.integers(0, 2**63, 300, dtype=np.int64)
    # plant near-dups: flip <=6 random bits of some rows
    hashes = base.copy()
    for k in range(0, 300, 10):
        v = np.uint64(base[k])
        for b in rng.choice(64, rng.integers(1, 7), replace=False):
            v ^= np.uint64(1) << np.uint64(b)
        hashes[k - 1 if k else 1] = np.int64(v)
    df = pd.DataFrame({"h": hashes, "id": np.arange(300, dtype=np.int64)})
    got = hash_band_pairs(rd.from_pandas(df).repartition(4),
                          "h", "id", max_hamming=6,
                          n_bands=8).to_pandas()
    gp = set(zip(got["id_a"], got["id_b"]))
    # brute force
    d = hamming64(hashes[:, None], hashes[None, :])
    r, c = np.nonzero(d <= 6)
    exp = {(i, j) for i, j in zip(r, c) if i < j}
    assert gp == exp and len(exp) > 0


def test_band_pairs_without_pairs_is_typed(ray_session):
    """Rows but no near-dup pairs: zero rows with the non-empty
    path's schema, not a schema-less dataset."""
    import ray.data as rd

    from proj_ray.functions.dedup import hash_band_pairs

    rng = np.random.default_rng(3)
    hashes = np.unique(rng.integers(-2**63, 2**63 - 1, 400,
                                    dtype=np.int64))
    assert len(hashes) == 400
    df = pd.DataFrame({"h": hashes, "id": np.arange(400, dtype=np.int64)})
    out = hash_band_pairs(rd.from_pandas(df).repartition(4), "h", "id",
                          max_hamming=2, n_bands=8)
    assert out.count() == 0
    schema = out.schema()
    assert schema is not None
    assert schema.names == ["id_a", "id_b", "hamming"]
    assert [str(t) for t in schema.types] == ["int64"] * 3
