"""The images table: deterministic synthesis, codecs, and perceptual hash.

Input shape is the BASELINE input_hint:
  image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
  caption:string, phash:int64  (+ geotag lon/lat synthesized
  deterministically).

Container constraints: no PIL/libjpeg, so every codec is pure NumPy:
  - bmp: real 24-bit uncompressed BMP encode/decode
  - png: real PNG encode/decode (zlib, filter 0, 8-bit RGB)
  - jpeg: REAL baseline JPEG (proj_ray/jpeg.py — ITU-T T.81 sequential
    DCT, 4:4:4, optimized Huffman tables), quality 98 on the fixture
    path so the lossy invariant (PSNR >= 40 dB) holds with margin even
    on the worst-case modular-sawtooth synthetic patterns
  - qjpg: the round-1..4 quantize-to-a-step stand-in, kept as its own
    honestly-named format because its decode is EXACT integer
    arithmetic a SQL oracle can mirror ((c//4)*4+2) — the stored
    synthetic table uses it for its lossy rows so the pixel-decoding
    oracles (q22/q24/q49/q92/q93) stay value-exact; real-JPEG fidelity
    is oracle-gated separately (q101: SQL states the >=40 dB
    invariant, the engine measures it).

Everything is seeded by row index only (seed=42 convention) so any worker
can regenerate any row — the basis for resumable synthesis at scale.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# ---------------------------------------------------------------- geotags --

# Zipfian hot spots (a few metro-like clusters receiving ~5% of rows each)
HOTSPOTS = [
    (-74.0060, 40.7128),   # New York
    (2.3522, 48.8566),     # Paris
    (139.6917, 35.6895),   # Tokyo
    (-118.2437, 34.0522),  # LA
]
HOT_FRACTION = 0.18  # fraction of rows pulled into hot spots
INVALID_FRACTION = 0.002  # rows with intentionally invalid lat (=91)


def geotags(idx: np.ndarray):
    """Deterministic lon/lat for row indices. Low-discrepancy base scatter
    (golden-ratio sequence) + hot-spot clusters + invalid tail.

    Pure integer/float arithmetic — reproducible anywhere.
    """
    i = np.asarray(idx, dtype=np.int64)
    # golden-ratio low-discrepancy sequence
    lon = ((i * 0.6180339887498949) % 1.0) * 360.0 - 180.0
    lat = ((i * 0.7548776662466927) % 1.0) * 170.1022 - 85.0511
    h = (i * np.int64(2654435761)) % np.int64(1000)
    hot = h < int(HOT_FRACTION * 1000)
    which = (i % len(HOTSPOTS)).astype(np.int64)
    jitter_lon = (((i * 7919) % 1000) / 1000.0 - 0.5) * 0.5
    jitter_lat = (((i * 104729) % 1000) / 1000.0 - 0.5) * 0.5
    for k, (hx, hy) in enumerate(HOTSPOTS):
        m = hot & (which == k)
        lon = np.where(m, hx + jitter_lon, lon)
        lat = np.where(m, hy + jitter_lat, lat)
    invalid = (i * np.int64(31337)) % np.int64(10000) < int(
        INVALID_FRACTION * 10000)
    lat = np.where(invalid, 91.0, lat)
    return lon, lat


# ----------------------------------------------------------------- pixels --


def synth_pixels(i: int, w: int, h: int) -> np.ndarray:
    """Deterministic RGB uint8 image for row i (vectorized pattern)."""
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    base = (i * 37 + r * 11 + c * 7) % 256
    g = (i * 53 + r * 5 + c * 13) % 256
    b = (i * 97 + (r + c) * 3) % 256
    return np.stack([base, g, b], axis=-1).astype(np.uint8)


# -------------------------------------------------------------------- bmp --


def bmp_encode(px: np.ndarray) -> bytes:
    h, w, _ = px.shape
    row_size = (w * 3 + 3) & ~3
    img_size = row_size * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = np.zeros((h, row_size), dtype=np.uint8)
    bgr = px[::-1, :, ::-1]  # bottom-up, BGR
    rows[:, :w * 3] = bgr.reshape(h, w * 3)
    return header + info + rows.tobytes()


def bmp_decode(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    offset = struct.unpack("<I", data[10:14])[0]
    w, h = struct.unpack("<ii", data[18:26])[0:2]
    bpp = struct.unpack("<H", data[28:30])[0]
    if bpp != 24:
        raise ValueError("only 24-bit BMP supported")
    row_size = (w * 3 + 3) & ~3
    arr = np.frombuffer(data, dtype=np.uint8, count=row_size * abs(h),
                        offset=offset).reshape(abs(h), row_size)
    px = arr[:, :w * 3].reshape(abs(h), w, 3)[:, :, ::-1]
    if h > 0:
        px = px[::-1]
    return np.ascontiguousarray(px)


# -------------------------------------------------------------------- png --


def png_encode(px: np.ndarray) -> bytes:
    h, w, _ = px.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8),
         px.reshape(h, w * 3)], axis=1).tobytes()
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def png_decode(data: bytes) -> np.ndarray:
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos = 8
    w = h = 0
    idat = b""
    while pos < len(data):
        ln = struct.unpack(">I", data[pos:pos + 4])[0]
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            if depth != 8 or ctype != 2:
                raise ValueError("only 8-bit RGB PNG supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + ln
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    raw = raw.reshape(h, w * 3 + 1)
    filters = raw[:, 0]
    px = raw[:, 1:].reshape(h, w, 3).astype(np.int32)
    # support filter types 0 (none) and 2 (up) which we emit/others raise
    for r in range(h):
        f = filters[r]
        if f == 0:
            continue
        elif f == 2 and r > 0:
            px[r] = (px[r] + px[r - 1]) % 256
        else:
            raise ValueError(f"unsupported PNG filter {f}")
    return px.astype(np.uint8)


# -------------------------------------------- quantize stand-in codec --

_FJPG_MAGIC = b"FJPG"
_FJPG_STEP = 4  # quantization step -> PSNR ~ 48 dB


def _qjpg_encode(px: np.ndarray) -> bytes:
    """Deterministic SQL-mirrorable lossy codec: channel quantization +
    zlib. Decode is exact integer arithmetic ((c//4)*4+2), which is why
    the synthetic table's lossy rows use it — pixel-decoding SQL
    oracles stay value-exact. NOT a JPEG (magic FJPG); the real JPEG
    codec is proj_ray/jpeg.py."""
    h, w, _ = px.shape
    q = (px.astype(np.int32) // _FJPG_STEP).astype(np.uint8)
    return (_FJPG_MAGIC + struct.pack(">HHB", w, h, _FJPG_STEP)
            + zlib.compress(q.tobytes(), 6))


def _qjpg_decode(data: bytes) -> np.ndarray:
    if data[:4] != _FJPG_MAGIC:
        raise ValueError("not a FJPG blob")
    w, h, step = struct.unpack(">HHB", data[4:9])
    q = np.frombuffer(zlib.decompress(data[9:]), dtype=np.uint8)
    px = q.reshape(h, w, 3).astype(np.int32) * step + step // 2
    return np.clip(px, 0, 255).astype(np.uint8)


FORMATS = ("png", "qjpg", "bmp")

JPEG_FIXTURE_QUALITY = 98  # clears the 40 dB bar on worst-case synth


def encode(px: np.ndarray, fmt: str) -> bytes:
    if fmt == "bmp":
        return bmp_encode(px)
    if fmt == "png":
        return png_encode(px)
    if fmt == "jpeg":
        from proj_ray.jpeg import jpeg_encode
        return jpeg_encode(px, quality=JPEG_FIXTURE_QUALITY)
    if fmt == "qjpg":
        return _qjpg_encode(px)
    raise NotImplementedError(f"codec {fmt} not available in this container")


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "bmp":
        return bmp_decode(data)
    if fmt == "png":
        return png_decode(data)
    if fmt == "jpeg":
        from proj_ray.jpeg import jpeg_decode
        return jpeg_decode(data)
    if fmt == "qjpg":
        return _qjpg_decode(data)
    raise NotImplementedError(f"codec {fmt} not available in this container")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10 * np.log10(255.0 ** 2 / mse))


# -------------------------------------------------------------- resize ----


def resize_nearest(px: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize with floor index mapping
    (sy = y*h // out_h) — integer-exact, hence SQL-reproducible."""
    h, w, _ = px.shape
    sy = (np.arange(out_h, dtype=np.int64) * h) // out_h
    sx = (np.arange(out_w, dtype=np.int64) * w) // out_w
    return px[sy][:, sx]


def resize_bilinear(px: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize, half-pixel-center convention (matches the common
    align_corners=False definition used by OpenCV/PIL)."""
    h, w, _ = px.shape
    fy = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    fx = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(fy).astype(np.int64)
    x0 = np.floor(fx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (fy - y0)[:, None, None]
    wx = (fx - x0)[None, :, None]
    p = px.astype(np.float64)
    top = p[y0][:, x0] * (1 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1 - wx) + p[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


class Resizer:
    """Actor-pool map_batches stage: decode -> resize -> (optionally)
    re-encode. Stateful setup (target dims, output codec) lives in
    __init__ once per actor; __call__ handles one Arrow/pandas batch.

    `emit` selects the output layout:
      - "bytes": {image_id, bytes, w, h, fmt} with resized re-encoded
        blobs (the storage-to-storage shape)
      - "sums":  {image_id, sum_r, sum_g, sum_b} integer channel sums of
        the resized pixels (the cheap-stats / oracle shape)
    """

    def __init__(self, out_w: int, out_h: int, method: str = "nearest",
                 emit: str = "bytes", out_fmt: str | None = None):
        self.out_w, self.out_h = out_w, out_h
        self.fn = resize_nearest if method == "nearest" else resize_bilinear
        self.emit = emit
        self.out_fmt = out_fmt

    def __call__(self, b: dict) -> dict:
        n = len(b["image_id"])
        if self.emit == "sums":
            sums = np.empty((n, 3), dtype=np.int64)
        else:
            blobs = np.empty(n, dtype=object)
            fmts = np.empty(n, dtype=object)
        for k in range(n):
            px = decode(b["bytes"][k], b["fmt"][k])
            rp = self.fn(px, self.out_w, self.out_h)
            if self.emit == "sums":
                sums[k] = rp.reshape(-1, 3).sum(axis=0, dtype=np.int64)
            else:
                fmt = self.out_fmt or b["fmt"][k]
                blobs[k] = encode(rp, fmt)
                fmts[k] = fmt
        if self.emit == "sums":
            return {"image_id": b["image_id"], "sum_r": sums[:, 0],
                    "sum_g": sums[:, 1], "sum_b": sums[:, 2]}
        return {"image_id": b["image_id"], "bytes": blobs,
                "w": np.full(n, self.out_w, dtype=np.int32),
                "h": np.full(n, self.out_h, dtype=np.int32),
                "fmt": fmts}


# -------------------------------------------------------------- phash -----


def phash64(px: np.ndarray) -> int:
    """64-bit average hash of the 8x8-downsampled grayscale image."""
    g = px.astype(np.float64).mean(axis=2)
    h, w = g.shape
    ys = np.linspace(0, h, 9).astype(int)
    xs = np.linspace(0, w, 9).astype(int)
    blocks = np.empty((8, 8))
    for r in range(8):
        for c in range(8):
            blocks[r, c] = g[ys[r]:max(ys[r + 1], ys[r] + 1),
                             xs[c]:max(xs[c + 1], xs[c] + 1)].mean()
    bits = (blocks > blocks.mean()).ravel()
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return v - (1 << 64) if v >= (1 << 63) else v


# ------------------------------------------------------------ the table ---


def make_images_batch(start: int, count: int, dup_every: int = 97):
    """Generate rows [start, start+count) of the images table as a dict of
    NumPy/object arrays (one map_batches-friendly call).

    Every `dup_every`-th row is a pixel-duplicate of the previous row
    (same phash, new image_id) — the dedup fixture.
    """
    return make_images_for(np.arange(start, start + count,
                                     dtype=np.int64), dup_every)


def make_images_for(idx: np.ndarray, dup_every: int = 97):
    """Generate the images-table rows for an arbitrary id array (any
    worker can synthesize any row — the resumable-synthesis contract)."""
    idx = np.asarray(idx, dtype=np.int64)
    count = len(idx)
    lon, lat = geotags(idx)
    sizes = [(16, 16), (32, 24), (64, 48)]
    image_id = np.array([f"img{i:012d}" for i in idx], dtype=object)
    fmts = np.array([FORMATS[i % 3] for i in idx], dtype=object)
    blobs = np.empty(count, dtype=object)
    ws = np.empty(count, dtype=np.int32)
    hs = np.empty(count, dtype=np.int32)
    ph = np.empty(count, dtype=np.int64)
    caps = np.empty(count, dtype=object)
    for k, i in enumerate(idx):
        src = int(i)
        if dup_every and i % dup_every == 0 and i > 0:
            src = int(i) - 1  # duplicate content of previous row
        w, h = sizes[src % 3]
        px = synth_pixels(src, w, h)
        fmt = FORMATS[src % 3]
        fmts[k] = fmt
        blobs[k] = encode(px, fmt)
        ws[k] = w
        hs[k] = h
        ph[k] = phash64(px)
        caps[k] = f"caption for img{i} at {lon[k]:.4f},{lat[k]:.4f}"
    return {
        "image_id": image_id,
        "bytes": blobs,
        "w": ws,
        "h": hs,
        "fmt": fmts,
        "caption": caps,
        "phash": ph,
        "lon": lon,
        "lat": lat,
    }


def images_dataset(n_rows: int, parallelism: int = 8):
    """A ray.data.Dataset of the synthetic images table, generated
    shard-wise on workers (nothing materialized on the driver).

    Built on rd.range so blocks hold REAL rows (one id per row): a
    downstream fused map_batches then batches by actual images, not by
    shard descriptors — a 16-byte-descriptor input would otherwise let
    the fused operator coalesce thousands of rows into one task."""
    import ray.data as rd

    def gen(batch):
        import pandas as pd

        return pd.DataFrame(make_images_for(batch["id"]))

    return rd.range(n_rows, override_num_blocks=max(parallelism, 1)) \
        .map_batches(gen, batch_format="numpy", batch_size=256)


def cached_table(gen_fn, tag: str, n_rows: int,
                 cache_dir: str = "/tmp/proj_ray_cache",
                 parallelism: int = 32) -> str:
    """Materialize a deterministic synthetic table ONCE per (tag, n)
    as parquet and return its path. Queries then READ it like any
    stored table — which is both the input_hint shape (a stored
    image+caption table) and the scale-correct measurement: the
    operator's cost is read+decode+aggregate, not fixture synthesis.
    Atomic dir rename; concurrent callers converge on one copy.
    """
    import os
    import shutil

    path = os.path.join(cache_dir, f"{tag}_n{n_rows}")
    if os.path.isdir(path) and os.listdir(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    gen_fn(n_rows, parallelism).write_parquet(tmp)
    try:
        os.rename(tmp, path)
    except OSError:  # lost the race: someone else finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def images_table(n_rows: int, columns: list | None = None,
                 parallelism: int = 32, small_as_one_block: bool = False):
    """The synthetic images table as a READ of its cached parquet
    materialization, with column pruning pushed to the reader (e.g.
    tiling needs only lon/lat — the blobs never leave storage).
    `small_as_one_block` reads a table of at most
    `dsutil.ONE_BLOCK_ROWS` rows as one block, for inputs of the
    row-wise stages; decode/embed maps keep Ray's split."""
    import ray.data as rd

    from proj_ray.dsutil import read_parquet

    # tag bumped when the codec set changed (jpeg -> real T.81; the
    # fixture's lossy rows renamed to qjpg) so stale caches regenerate
    path = cached_table(images_dataset, "images_v2", n_rows,
                        parallelism=parallelism)
    if small_as_one_block:
        return read_parquet(path, columns=columns)
    return rd.read_parquet(path, columns=columns)


# -------------------------------------------------- CLIP-shaped encoder ---


class ImageEmbedder:
    """CLIP-shaped image-encoder stage: decode -> fixed-grid resample ->
    integer linear projection to a dim-D embedding.

    The ENCODER ITSELF IS A DETERMINISTIC STUB (the container has no
    vision model; weights are a small-integer formula so the SQL oracle
    can reproduce every embedding bit-for-bit). Everything around it is
    the real scale plumbing a learned encoder would use: an actor-pool
    map_batches stage whose weight tensor is built ONCE per actor in
    __init__, real codec decode per image, and an (n, dim) int64 tensor
    column out — swap `self.W` for loaded model weights and nothing
    else changes.

    Weight formula (mirrored in the q92 SQL oracle):
      w_r(d,y,x) = ((d+1)*(y + 2x)) % 7 - 3
      w_g(d,y,x) = ((d+2)*(2y + x)) % 7 - 3
      w_b(d,y,x) = ((d+3)*(y + x))  % 7 - 3
    e_d = sum over the out_h x out_w grid of r*w_r + g*w_g + b*w_b.
    """

    def __init__(self, dim: int = 16, out_w: int = 16, out_h: int = 12,
                 passthrough: tuple = ()):
        self.dim, self.out_w, self.out_h = dim, out_w, out_h
        self.passthrough = tuple(passthrough)
        d = np.arange(dim, dtype=np.int64)[:, None, None]
        y = np.arange(out_h, dtype=np.int64)[None, :, None]
        x = np.arange(out_w, dtype=np.int64)[None, None, :]
        self.W = np.stack([
            ((d + 1) * (y + 2 * x)) % 7 - 3,
            ((d + 2) * (2 * y + x)) % 7 - 3,
            ((d + 3) * (y + x)) % 7 - 3,
        ], axis=-1)  # (dim, out_h, out_w, 3)

    def embed_pixels(self, px: np.ndarray) -> np.ndarray:
        rp = resize_nearest(px, self.out_w, self.out_h).astype(np.int64)
        return np.einsum("dyxc,yxc->d", self.W, rp)

    def __call__(self, b: dict) -> dict:
        n = len(b["image_id"])
        E = np.empty((n, self.dim), dtype=np.int64)
        for k in range(n):
            E[k] = self.embed_pixels(decode(b["bytes"][k], b["fmt"][k]))
        out = {"image_id": b["image_id"], "emb": E}
        for c in self.passthrough:
            out[c] = b[c]
        return out


def clip_image_topk(emb_ds, query_ids: np.ndarray, k: int = 3,
                    dim: int = 16):
    """Retrieval over the embedding column: for each query image id,
    the top-k most-aligned OTHER images by exact int64 dot product
    (ties broken by image_id asc).

    The query matrix is synthesized driver-side from the deterministic
    fixture contract (any worker/driver can synthesize any row) and
    broadcast once; each batch does one (B, dim) x (dim, Q) int matmul
    and pre-prunes to k candidates per query per block, so the final
    per-query combine sees k * n_blocks rows, not n."""
    import pandas as pd
    import ray

    enc = ImageEmbedder(dim=dim)
    qids = np.asarray(query_ids, dtype=np.int64)
    qsrc = make_images_for(qids)
    Q = np.stack([enc.embed_pixels(decode(qsrc["bytes"][j],
                                          qsrc["fmt"][j]))
                  for j in range(len(qids))])
    qnames = [f"img{int(i):012d}" for i in qids]
    ref = ray.put((Q, qids, qnames))

    def score(b: dict) -> pd.DataFrame:
        Qm, qi, qn = ray.get(ref)
        E = np.asarray(b["emb"], dtype=np.int64)
        ids = np.asarray(b["image_id"], dtype=object)
        S = E @ Qm.T  # (B, Q) exact int64
        out = []
        for j in range(len(qi)):
            s = S[:, j]
            notself = ids != qn[j]
            cand = np.flatnonzero(notself)
            if len(cand) == 0:
                continue
            # top-k by (score desc, image_id asc): sort candidates
            srt = cand[np.lexsort((ids[cand], -s[cand]))][:k]
            for c in srt:
                out.append((int(qi[j]), ids[c], int(s[c])))
        return pd.DataFrame(out, columns=["qid", "image_id", "score"]) \
            if out else pd.DataFrame({"qid": pd.Series([], dtype=np.int64),
                                      "image_id": pd.Series([], dtype=object),
                                      "score": pd.Series([], dtype=np.int64)})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "image_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["qid", "image_id", "score", "rk"]]

    return (emb_ds.map_batches(score, batch_format="numpy")
                  .groupby("qid").map_groups(final,
                                             batch_format="pandas"))


def clip_geo_topk(emb_ds, query_ids: np.ndarray, k: int = 3,
                  zoom: int = 7, dim: int = 16):
    """Geo-constrained retrieval (the geospatial x image fusion shape):
    for each query image, the top-k most-aligned OTHER images whose
    z/x/y tile lies in the 3x3 ring around the query's tile — spatial
    prune first, exact int64 MIPS re-rank second.

    `emb_ds` must carry image_id, emb, lon, lat (ImageEmbedder with
    passthrough=("lon", "lat")). The ring test is plain |dx|<=1 and
    |dy|<=1 at `zoom` with NO antimeridian wrap (mirrored verbatim in
    the SQL oracle). Queries broadcast once as (emb, tile) rows; each
    batch masks candidates per query before the matmul score, and
    pre-prunes to k per query per block."""
    import pandas as pd
    import ray

    from .tiles import tile_assign

    enc = ImageEmbedder(dim=dim)
    qids = np.asarray(query_ids, dtype=np.int64)
    qsrc = make_images_for(qids)
    Q = np.stack([enc.embed_pixels(decode(qsrc["bytes"][j],
                                          qsrc["fmt"][j]))
                  for j in range(len(qids))])
    qtx, qty, _ = tile_assign(qsrc["lon"], qsrc["lat"], zoom)
    qnames = [f"img{int(i):012d}" for i in qids]
    ref = ray.put((Q, qids, qnames, qtx, qty))

    def score(b: dict) -> pd.DataFrame:
        Qm, qi, qn, qx, qy = ray.get(ref)
        E = np.asarray(b["emb"], dtype=np.int64)
        ids = np.asarray(b["image_id"], dtype=object)
        tx, ty, _ = tile_assign(np.asarray(b["lon"]),
                                np.asarray(b["lat"]), zoom)
        S = E @ Qm.T
        out = []
        for j in range(len(qi)):
            ring = (np.abs(tx - qx[j]) <= 1) & (np.abs(ty - qy[j]) <= 1)
            cand = np.flatnonzero(ring & (ids != qn[j]))
            if len(cand) == 0:
                continue
            s = S[:, j]
            srt = cand[np.lexsort((ids[cand], -s[cand]))][:k]
            for c in srt:
                out.append((int(qi[j]), ids[c], int(s[c])))
        return pd.DataFrame(out, columns=["qid", "image_id", "score"]) \
            if out else pd.DataFrame({"qid": pd.Series([], dtype=np.int64),
                                      "image_id": pd.Series([], dtype=object),
                                      "score": pd.Series([], dtype=np.int64)})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "image_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["qid", "image_id", "score", "rk"]]

    return (emb_ds.map_batches(score, batch_format="numpy")
                  .groupby("qid").map_groups(final,
                                             batch_format="pandas"))


# -------------------------------------------------- real-JPEG fidelity --


def jpeg_fidelity_partials(b: dict, quality: int = JPEG_FIXTURE_QUALITY,
                           threshold_db: float = 40.0) -> dict:
    """Task-pool stage gating the lossy-codec invariant (north rule:
    decoded-pixel PSNR >= 40 dB for lossy formats) on the REAL baseline
    JPEG codec (proj_ray/jpeg.py): decode each stored blob with its own
    codec, re-encode as real JPEG, decode that, and count rows whose
    round-trip PSNR clears the threshold.

    Emits per-batch partials (fmt, n_part, ok_part) — the exchange
    carries a handful of counter rows, never pixels. The q101 SQL
    oracle states the INVARIANT (ok == n for every format); the engine
    measures it, so a codec regression below the bar fails the
    value-hash gate mechanically.

    Deliberately a plain function, not an actor class: the stage holds
    no per-worker state worth amortizing (the codec is a module
    import), and at 5k images the task pool reaches full width
    immediately while an autoscaling actor pool spends most of the
    wall-clock ramping (measured 11.5 s actor vs 3.5 s task at sf0.1,
    32 cpus)."""
    import pandas as pd

    from proj_ray.jpeg import jpeg_decode, jpeg_encode

    m = len(b["fmt"])
    ok = np.empty(m, dtype=np.int64)
    for k in range(m):
        px = decode(b["bytes"][k], b["fmt"][k])
        rt = jpeg_decode(jpeg_encode(px, quality))
        ok[k] = psnr(px, rt) >= threshold_db
    g = (pd.DataFrame({"fmt": b["fmt"], "ok": ok})
         .groupby("fmt", as_index=False)
         .agg(n_part=("ok", "size"), ok_part=("ok", "sum")))
    return {"fmt": g["fmt"].to_numpy(dtype=object),
            "n_part": g["n_part"].to_numpy(np.int64),
            "ok_part": g["ok_part"].to_numpy(np.int64)}


class PatchStats:
    """Actor-pool stage: decode -> patchify into a g x g grid -> exact
    integer per-patch luminance partials (the ViT-style "patch token"
    statistics pass a vision-training pipeline runs before embedding).

    lum = 2r + 3g + b (integer); per batch the stage emits at most
    g*g rows (pr, pc, n_imgs, sum_lum, chk) where chk =
    sum(per-image patch lum * (image index + 1)) pins each image's
    contribution position-wise. Pixels never leave the task; the
    exchange carries g*g bounded accumulator rows per block."""

    def __init__(self, grid: int = 4):
        self.g = grid

    def __call__(self, b: dict) -> dict:
        g = self.g
        n_imgs = np.zeros((g, g), dtype=np.int64)
        sum_lum = np.zeros((g, g), dtype=np.int64)
        chk = np.zeros((g, g), dtype=np.int64)
        for k in range(len(b["image_id"])):
            px = decode(b["bytes"][k], b["fmt"][k]).astype(np.int64)
            h, w, _ = px.shape
            lum = 2 * px[..., 0] + 3 * px[..., 1] + px[..., 2]
            p = lum.reshape(g, h // g, g, w // g).sum(axis=(1, 3))
            i = int(str(b["image_id"][k])[3:])
            n_imgs += 1
            sum_lum += p
            chk += p * (i + 1)
        pr, pc = np.meshgrid(np.arange(g, dtype=np.int64),
                             np.arange(g, dtype=np.int64), indexing="ij")
        return {"pr": pr.ravel(), "pc": pc.ravel(),
                "n_imgs": n_imgs.ravel(), "sum_lum": sum_lum.ravel(),
                "chk": chk.ravel()}


def patch_stats(ds, grid: int = 4):
    """Combine PatchStats partials -> pandas (pr, pc, n_imgs, sum_lum,
    chk) sorted by (pr, pc). One tiny driver combine; no shuffle."""
    import pandas as pd

    parts = ds.map_batches(PatchStats,
                           fn_constructor_kwargs=dict(grid=grid),
                           batch_format="numpy", batch_size=256,
                           concurrency=(2, 8)).to_pandas()
    out = parts.groupby(["pr", "pc"], sort=True).sum().reset_index()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def ahash64_int(px: np.ndarray) -> np.int64:
    """Integer-exact 64-bit average hash: luminance 2r+3g+b summed per
    8x8 block (h, w divisible by 8 so blocks are equal-size), bit j
    (= block_row*8 + block_col) set iff block_sum * 64 > total_sum —
    all int64 comparisons, so a SQL oracle reproduces every bit (the
    float-mean phash64 cannot be mirrored: numpy's pairwise summation
    is not SQL-reproducible)."""
    p = px.astype(np.int64)  # BEFORE arithmetic: 3*uint8 wraps mod 256
    g = 2 * p[..., 0] + 3 * p[..., 1] + p[..., 2]
    h, w = g.shape
    bs = g.reshape(8, h // 8, 8, w // 8).sum(axis=(1, 3))
    total = np.int64(bs.sum())
    bits = (bs.ravel() * 64 > total)
    with np.errstate(over="ignore"):
        v = (bits.astype(np.uint64)
             << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)
    return v.view(np.int64)


class AHasher:
    """Actor-pool stage: decode -> integer aHash; emits (img, ahash)."""

    def __call__(self, b: dict) -> dict:
        n = len(b["image_id"])
        out = np.empty(n, dtype=np.int64)
        idx = np.empty(n, dtype=np.int64)
        for k in range(n):
            px = decode(b["bytes"][k], b["fmt"][k])
            out[k] = ahash64_int(px)
            idx[k] = int(str(b["image_id"][k])[3:])
        return {"img": idx, "ahash": out}
