"""Deduplication operators for large-scale training-data pipelines.

The reference has no dedup (every record ships with a fresh uuid,
``/root/reference/src/elastic.rs:108`` — re-ingest duplicates docs); these
are the operators a 100 TB corpus pipeline needs, each built Ray-Data-first:

- :func:`exact_dedup` — content-hash partition → per-group first.
- :func:`minhash_signatures` / :func:`minhash_lsh_candidates` /
  :func:`minhash_dedup` — shingle → minhash → banded LSH buckets →
  groupby → candidate pairs → exact-Jaccard verify.
- :func:`simhash_signatures` / :func:`simhash_candidates` — 64-bit simhash
  with banded blocking for hamming-distance ≤ k pairs.
- :func:`ngram_jaccard` — exact n-gram Jaccard between two texts (the
  verifier used by the LSH paths; also exposed standalone).
- :func:`ngram_jaccard_pairs` — EXACT word-n-gram Jaccard pairs over the
  whole corpus via the all-pairs prefix filter (no sketch): the
  value-checkable ground truth the MinHash/SimHash paths approximate.
- :func:`embedding_neardup` — cosine near-duplicate pairs over an
  embedding column: broadcast normalized matrix + blocked matmul
  (exact), or random-hyperplane LSH bucketing (scale path).

Scale notes: signatures are computed per batch (vectorized numpy, no
Python loop over *shingles*); the only all-to-all is the groupby over
(band, band_hash) rows — O(docs × bands) tiny rows, never the text.
Candidate verification re-reads texts only for candidate ids (assumed ≪
corpus; documented per function).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env

__all__ = [
    "exact_dedup",
    "minhash_signatures",
    "minhash_lsh_candidates",
    "minhash_dedup",
    "simhash_signatures",
    "simhash_candidates",
    "ngram_jaccard",
    "ngram_jaccard_pairs",
    "cross_jaccard_pairs",
    "embedding_neardup",
    "embedding_neardup_lsh",
]

# Mersenne prime 2^31-1: with a,b,h all < 2^31, (a*h + b) stays < 2^63 —
# no uint64 wraparound, so the permutations really are a universal family
# mod p (a 2^61 modulus would overflow uint64 in the product and silently
# wrap, breaking the uniformity the Jaccard estimate relies on)
_MERSENNE = (1 << 31) - 1


def _stable_u64(arr: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hashes for an object array of strings."""
    return pd.util.hash_array(arr, hash_key="ulp_ray_dedup!16").astype(np.uint64)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, on: str, order_col: str, buckets: int | None = None):
    """Exact dedup: keep, for each distinct ``on`` value, the row with the
    minimum ``order_col`` (deterministic winner).

    Two-phase: a vectorized content-hash column is added per batch, the
    shuffle co-groups by ``hash % buckets`` (fixed-width key, never the
    payload — and ~``buckets`` Python callbacks total, NOT one per
    distinct value), and the per-bucket step resolves everything on the
    actual values (which also makes 64-bit hash collisions harmless):
    one Arrow sort on ``order_col`` only, then the first row of each
    ``on`` value by a hash group-by, so long keys are hashed, never
    compared. Rows keep the input's column types; a null ``order_col``
    loses to any value, and ties keep input order."""

    from ._bucket import co_group

    def keep_first(t: pa.Table) -> pa.Table:
        t = t.take(
            pc.sort_indices(t, [(order_col, "ascending")], null_placement="at_end")
        )
        # NULL is one distinct value and keeps its min-order row (SQL
        # GROUP BY semantics — the oracle emits a NULL group; NaN is
        # another, as in DuckDB)
        rows = pa.table({"k": t[on], "i": np.arange(len(t))})
        first = rows.group_by("k").aggregate([("i", "min")])["i_min"]
        return t.take(np.sort(first.to_numpy()))

    return co_group([ds], [on], keep_first, buckets)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Character k-shingle hash set of one document (uint64, unique).
    Scalar form (tests, the Jaccard verifier); the signature stage uses
    the batch form below."""
    hs = _batch_shingle_hashes([text], k)[0]
    return np.unique(hs)


def _batch_shingle_hashes(texts: list[str | None], k: int) -> list[np.ndarray]:
    """Byte-level k-gram rolling hashes for a whole batch, vectorized:
    one concatenated UTF-8 buffer, k shifted-add passes (no per-doc
    string slicing — that Python loop was the signature stage's cost).
    Shingles are BYTE k-grams (multibyte chars span >1 unit) — a
    deterministic, self-consistent family for MinHash."""
    bufs = [(t or "\x00").encode("utf-8") for t in texts]
    # pad every short doc's OWN buffer to k bytes so its single window
    # never reads into the next doc (hash must not depend on batch
    # composition); matches the standalone n<k zero-pad path below
    bufs = [b if len(b) >= k else b + b"\x00" * (k - len(b)) for b in bufs]
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    data = np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.uint64)
    n = len(data)
    if n < k:
        data = np.concatenate([data, np.zeros(k, dtype=np.uint64)])
        n = len(data)
    # polynomial hash of every k-byte window: h[i] = Σ b[i+j]·P^(k-1-j)
    P = np.uint64(1099511628211)
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        acc = acc * P + data[j : n - k + 1 + j]
    # final avalanche (splitmix-style) so nearby windows decorrelate
    acc ^= acc >> np.uint64(33)
    acc *= np.uint64(0xFF51AFD7ED558CCD)
    acc ^= acc >> np.uint64(33)
    ends = np.cumsum(lens)
    starts = ends - lens
    out: list[np.ndarray] = []
    for s, e in zip(starts, ends):
        # every buffer is ≥ k bytes after padding, so this slice is
        # always non-empty and never crosses into the next doc
        out.append(acc[s : e - k + 1])
    return out


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
    return a, b


def minhash_signatures(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    shingle_k: int = 5,
):
    """Per-doc minhash signature: a ``fixed_size_list<uint64>[num_perm]``
    column. Vectorized: per doc one numpy (num_perm × shingles) min-reduce;
    the permutation parameters are module-deterministic (seeded)."""

    a, b = _perm_params(num_perm)

    def sig(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        shingles = _batch_shingle_hashes(texts, shingle_k)
        out = np.empty((len(texts), num_perm), dtype=np.uint64)
        for i, sh in enumerate(shingles):
            sh = np.unique(sh)
            # (a*h + b) mod p, min over shingles — classic universal hashing
            vals = (a[:, None] * (sh[None, :] % _MERSENNE) + b[:, None]) % _MERSENNE
            out[i] = vals.min(axis=1)
        return pa.table(
            {
                id_col: batch[id_col],
                "minhash": pa.FixedSizeListArray.from_arrays(
                    pa.array(out.reshape(-1), pa.uint64()), num_perm
                ),
            }
        )

    return ds.map_batches(sig, batch_format="pyarrow", **remote_env())


def minhash_lsh_candidates(
    sig_ds,
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 16,
    dedup_pairs: bool = True,
):
    """Banded LSH: explode each signature into (band, band_hash, id) rows,
    group by (band, band_hash), and emit candidate pairs (a < b) from each
    bucket. The shuffle moves only O(docs × bands) fixed-width rows.

    Hot-bucket hazard (documented): pair generation is quadratic in a
    bucket's size, and N byte-identical documents all share every band
    bucket → O(N²) candidate pairs. Run :func:`exact_dedup` FIRST (the
    curation pipeline does) so only near-dups — which cluster in small
    groups — reach the LSH stage."""
    rows_per_band = num_perm // bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = np.asarray(batch["minhash"].combine_chunks().flatten()).reshape(
            len(ids), num_perm
        )
        band_ids = np.repeat(np.arange(bands, dtype=np.int32), len(ids))
        doc_ids = np.tile(ids, bands)
        hashes = np.empty(len(ids) * bands, dtype=np.uint64)
        for bi in range(bands):
            seg = sigs[:, bi * rows_per_band : (bi + 1) * rows_per_band]
            h = np.zeros(len(ids), dtype=np.uint64)
            for c in range(rows_per_band):  # tiny: rows_per_band mixes
                h = h * np.uint64(1099511628211) + seg[:, c]
            hashes[bi * len(ids) : (bi + 1) * len(ids)] = h
        return pa.table(
            {
                "band": pa.array(band_ids),
                "band_hash": pa.array(hashes),
                id_col: pa.array(doc_ids),
            }
        )

    # Millions of tiny buckets make per-group callbacks the bottleneck
    # (one Python call per bucket); instead co-locate buckets into a
    # bounded number of SHARDS (hash(band_hash) % n_shards) and generate
    # pairs per shard with one vectorized pandas self-merge.
    n_shards = 64

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = pc.cast(
            pc.bit_wise_and(batch["band_hash"], pa.scalar(n_shards - 1, pa.uint64())),
            pa.int64(),
        )
        return batch.append_column("shard", shard)

    def shard_pairs(g: pd.DataFrame) -> pa.Table:
        df = g[["band", "band_hash", id_col]]
        m = df.merge(df, on=["band", "band_hash"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = m.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})[
            ["id_a", "id_b"]
        ].drop_duplicates()
        return _typed_pairs(out, _ID_PAIR_SCHEMA)

    cand = (
        sig_ds.map_batches(explode, batch_format="pyarrow", **remote_env())
        .map_batches(add_shard, batch_format="pyarrow", **remote_env())
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pandas", **remote_env())
    )

    if not dedup_pairs:
        # caller dedups (e.g. minhash_dedup's verify loop) — skip the
        # extra groupby execution
        return cand
    # a pair found in several bands may land in different shards → final
    # global dedup, bucketed (NOT per-pair map_groups — that is one
    # Python callback per pair)
    return _dedup_pair_rows(cand, ["id_a", "id_b"])


# candidate pair blocks: Arrow with these types even when a shard has no
# pairs — an untyped empty pandas block would be re-typed (null, binary)
# by a later shuffle that unions it with Arrow blocks
_ID_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
_HAMMING_PAIR_SCHEMA = _ID_PAIR_SCHEMA.append(pa.field("hamming", pa.int64()))


def _typed_pairs(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    return pa.Table.from_pandas(df.astype("int64"), schema=schema, preserve_index=False)


def _dedup_pair_rows(pair_ds, key_cols: list[str]):
    """Distinct pair rows via hash-bucket co-grouping + one vectorized
    ``drop_duplicates`` per bucket (one Python callback per bucket; keeps
    every non-key column of the first occurrence)."""
    from ._bucket import co_group

    def drop(t: pa.Table) -> pd.DataFrame:
        return t.to_pandas().drop_duplicates(key_cols)

    return co_group([pair_ds], key_cols, drop)


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact character-k-gram Jaccard similarity of two texts."""
    sa = set(map(int, _shingle_hashes(text_a or "", k)))
    sb = set(map(int, _shingle_hashes(text_b or "", k)))
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


_PAIR_SCHEMA = pa.schema(
    [("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())]
)


def minhash_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    verify: str = "auto",
    max_driver_candidates: int = 200_000,
):
    """End-to-end MinHash-LSH near-dup detection: returns a **Dataset**
    ``(id_a, id_b, jaccard)`` of verified pairs with Jaccard ≥ threshold
    (unordered — the verified-pair set is unbounded in the corpus'
    duplication rate, so it stays in the object store; callers that need
    row order sort the small materialized slice themselves).

    Verification modes:

    - ``"driver"`` — fetch candidate texts to the driver with a broadcast
      id filter (fast when candidates ≪ corpus; bounded by
      ``max_driver_candidates`` under ``"auto"``).
    - ``"bucketed"`` — the 100 TB path: join candidate pairs to their two
      texts via two bucketed hash joins (``hash(id) % B`` co-grouping),
      then verify per batch — NOTHING (not texts, not the pair result
      set) ever reaches the driver.
    - ``"auto"`` (default) — driver below the candidate bound, bucketed
      above it.
    """
    import ray.data

    sigs = minhash_signatures(ds, text_col, id_col, num_perm, shingle_k)
    cand = minhash_lsh_candidates(
        sigs, id_col, num_perm, bands, dedup_pairs=True
    ).materialize()
    n_cand = cand.count()
    if n_cand == 0:
        return ray.data.from_arrow(_PAIR_SCHEMA.empty_table())
    if verify == "driver" or (verify == "auto" and n_cand <= max_driver_candidates):
        out = _verify_pairs_driver(ds, cand, text_col, id_col, shingle_k, threshold)
        return ray.data.from_arrow(out)
    return _verify_pairs_bucketed(ds, cand, text_col, id_col, shingle_k, threshold)


def _verify_pairs_driver(
    ds, cand, text_col, id_col, shingle_k, threshold
) -> pa.Table:
    """Driver-side verify: broadcast candidate-id filter, texts fetched
    once (assumes candidates ≪ corpus)."""
    pairs = cand.take_all()
    need = sorted({c["id_a"] for c in pairs} | {c["id_b"] for c in pairs})
    need_set = set(need)

    def pick(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[id_col], value_set=pa.array(need, type=batch[id_col].type))
        return batch.filter(mask).select([id_col, text_col])

    texts = {}
    for row in ds.map_batches(pick, batch_format="pyarrow", **remote_env()).take_all():
        if row[id_col] in need_set:
            texts[row[id_col]] = row[text_col]

    out_a, out_b, out_j = [], [], []
    for c in pairs:
        j = ngram_jaccard(texts.get(c["id_a"]), texts.get(c["id_b"]), shingle_k)
        if j >= threshold:
            out_a.append(c["id_a"])
            out_b.append(c["id_b"])
            out_j.append(round(j, 6))
    return pa.table(
        {
            "id_a": pa.array(out_a, pa.int64()),
            "id_b": pa.array(out_b, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        }
    )


def _verify_pairs_bucketed(ds, cand, text_col, id_col, shingle_k, threshold):
    """Distributed verify: candidate pairs ↔ texts co-located by two
    bucketed hash joins; the exact-Jaccard check runs inside
    ``map_batches`` and the verified pairs stay a Dataset — neither the
    texts nor the (duplication-rate-unbounded) pair set touches the
    driver."""
    from .join import bucketed_hash_join

    def texts_as(tag: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {f"id_{tag}": batch[id_col], f"__text_{tag}": batch[text_col]}
            )

        return fn

    t_a = ds.map_batches(texts_as("a"), batch_format="pyarrow", **remote_env())
    t_b = ds.map_batches(texts_as("b"), batch_format="pyarrow", **remote_env())
    j1 = bucketed_hash_join(cand, t_a, on="id_a", how="inner")
    j2 = bucketed_hash_join(j1, t_b, on="id_b", how="inner")

    def verify(batch: pa.Table) -> pa.Table:
        # filter on the RAW jaccard first, round only the output column —
        # same order as _verify_pairs_driver, so verify="auto" cannot
        # change the result set at the threshold boundary
        ja = np.array(
            [
                ngram_jaccard(a, b, shingle_k)
                for a, b in zip(
                    batch["__text_a"].to_pylist(), batch["__text_b"].to_pylist()
                )
            ],
            dtype=np.float64,
        )
        keep = ja >= threshold
        t = batch.filter(pa.array(keep)).select(["id_a", "id_b"])
        return t.append_column("jaccard", pa.array(np.round(ja[keep], 6)))

    return j2.map_batches(verify, batch_format="pyarrow", **remote_env())


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


_SIMHASH_BITS = np.arange(64, dtype=np.uint64)
# bound on the (tokens × 64) int32 sign matrix per vectorized block
_SIMHASH_CHUNK_TOKENS = 1 << 18


def simhash_signatures(ds, text_col: str = "text", id_col: str = "doc_id"):
    """64-bit simhash per doc: sign-sum of token hashes' bits.

    Vectorized per batch: ONE ``pd.util.hash_array`` over all of the
    batch's tokens, per-doc ±1 bit sums via ``np.add.reduceat`` over
    token offsets, sign-pack via shifts — no per-doc Python loop in the
    hash/bit path (the round-1 form built a binary *string* per doc).

    The tokenizer stays ``str.lower().split()`` ON PURPOSE (measured,
    round 3): an Arrow ``utf8_split_whitespace``/regex-split pipeline is
    0.6–0.7× the C str-method loop at both 20k×60-token and 200×50k-token
    shapes, because ``pd.util.hash_array`` needs a Python-object array
    either way — the Arrow→object back-conversion costs more than the
    split saves. Bit j of the signature is set iff the sum of
    (2·bit_j(hash(tok)) − 1) over the doc's tokens is > 0; empty docs get
    signature 0."""

    def sig(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ndocs = len(texts)
        tok_lists = [(t or "").lower().split() for t in texts]
        counts = np.array([len(x) for x in tok_lists], dtype=np.int64)
        out = np.zeros(ndocs, dtype=np.uint64)
        all_toks = [tok for toks in tok_lists for tok in toks]
        if all_toks:
            h = _stable_u64(np.array(all_toks, dtype=object))
            ntok = len(h)
            doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), counts)
            acc = np.zeros((ndocs, 64), dtype=np.int64)
            # flat token chunks (NOT doc-aligned): the sign matrix stays
            # ≤ CHUNK×64 int32 even for a single multi-million-token doc;
            # a doc spanning chunks accumulates partial bit sums (integer
            # addition — order-independent, bit-identical)
            for a in range(0, ntok, _SIMHASH_CHUNK_TOKENS):
                b = min(a + _SIMHASH_CHUNK_TOKENS, ntok)
                hs = h[a:b]
                signs = (
                    ((hs[:, None] >> _SIMHASH_BITS[None, :]) & np.uint64(1))
                    .astype(np.int32)
                    * 2
                    - 1
                )
                di = doc_idx[a:b]
                seg_starts = np.concatenate(
                    [[0], np.flatnonzero(np.diff(di)) + 1]
                )
                seg = np.add.reduceat(signs, seg_starts, axis=0)
                # within one chunk the segment targets are unique → +=
                acc[di[seg_starts]] += seg
            pos = acc > 0
            out = (pos.astype(np.uint64) << _SIMHASH_BITS[None, :]).sum(
                axis=1, dtype=np.uint64
            )
        return pa.table({id_col: batch[id_col], "simhash": pa.array(out, pa.uint64())})

    return ds.map_batches(sig, batch_format="pyarrow", **remote_env())


def simhash_candidates(sig_ds, id_col: str = "doc_id", max_hamming: int = 3):
    """Banded blocking for hamming ≤ ``max_hamming``: split the 64 bits
    into (max_hamming + 1) bands — pigeonhole: any pair within distance k
    agrees exactly on ≥1 band — group by (band, band_bits), emit pairs,
    verify the true hamming distance via XOR popcount."""
    n_bands = max_hamming + 1
    width = 64 // n_bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bands_col, bits_col, id_col_out, sig_out = [], [], [], []
        for bi in range(n_bands):
            shift = np.uint64(bi * width)
            mask = np.uint64((1 << width) - 1)
            bands_col.append(np.full(len(ids), bi, dtype=np.int32))
            bits_col.append((sigs >> shift) & mask)
            id_col_out.append(ids)
            sig_out.append(sigs)
        return pa.table(
            {
                "band": pa.array(np.concatenate(bands_col)),
                "band_bits": pa.array(np.concatenate(bits_col), pa.uint64()),
                id_col: pa.array(np.concatenate(id_col_out)),
                "simhash": pa.array(np.concatenate(sig_out), pa.uint64()),
            }
        )

    # same shard trick as minhash: bounded shard count, vectorized
    # self-merge per shard, XOR+popcount vectorized over the pair rows
    n_shards = 64

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = pc.cast(
            pc.bit_wise_and(batch["band_bits"], pa.scalar(n_shards - 1, pa.uint64())),
            pa.int64(),
        )
        return batch.append_column("shard", shard)

    def shard_pairs(g: pd.DataFrame) -> pa.Table:
        df = g[["band", "band_bits", id_col, "simhash"]].drop_duplicates(
            ["band", "band_bits", id_col]
        )
        m = df.merge(df, on=["band", "band_bits"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        x = m["simhash_a"].to_numpy().astype(np.uint64) ^ m[
            "simhash_b"
        ].to_numpy().astype(np.uint64)
        # vectorized popcount: view as bytes, unpack bits, sum
        ham = (
            np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
            .sum(axis=1)
            .astype(np.int64)
        )
        m = m.assign(hamming=ham)
        m = m[m["hamming"] <= max_hamming]
        out = m.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})[
            ["id_a", "id_b", "hamming"]
        ].drop_duplicates(["id_a", "id_b"])
        return _typed_pairs(out, _HAMMING_PAIR_SCHEMA)

    cand = (
        sig_ds.map_batches(explode, batch_format="pyarrow", **remote_env())
        .map_batches(add_shard, batch_format="pyarrow", **remote_env())
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pandas", **remote_env())
    )
    return _dedup_pair_rows(cand, ["id_a", "id_b"])


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def _normalized_matrix(
    ds, vec_col: str, id_col: str, dtype=np.float64, max_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Driver-side (ids, row-normalized matrix). With ``max_rows`` set,
    returns None as soon as the row count exceeds it — the caller falls
    back to the LSH path without a second pipeline execution (a
    ``ds.count()`` pre-check would re-run any upstream transforms)."""
    ids, rows = [], []
    total = 0
    for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if len(batch) == 0:
            continue
        total += len(batch)
        if max_rows is not None and total > max_rows:
            return None
        ids.append(batch[id_col].to_numpy(zero_copy_only=False))
        flat = np.asarray(batch[vec_col].combine_chunks().flatten(), dtype=dtype)
        rows.append(flat.reshape(len(batch), -1))
    if not rows:
        return np.array([], dtype=np.int64), np.zeros((0, 0), dtype=dtype)
    mat = np.concatenate(rows)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.concatenate(ids), mat / norms


def embedding_neardup(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    max_exact_rows: int = 2_000_000,
):
    """Cosine near-dup pairs: a **Dataset** ``(id_a, id_b, cosine)`` with
    id_a < id_b (unordered — the pair set is unbounded in the corpus'
    duplication rate, so it never collects on the driver; small callers
    sort after materializing).

    Exact path (≤ ``max_exact_rows``): the normalized matrix is broadcast
    (``ray.put`` once), each batch computes a block × all matmul in
    float64 (threshold-exact vs a float64 SQL oracle). Broadcast-side
    footprint: N × dim float64 — ~2 GB at 10⁶ × 256-d.

    Above the bound this auto-routes to :func:`embedding_neardup_lsh`
    (random-hyperplane bucketing; recall < 1 by construction) — the scale
    path never materializes the corpus matrix on the driver. The bound is
    enforced DURING the single materialization pass (no separate count
    execution)."""
    import ray

    got = _normalized_matrix(ds, vec_col, id_col, max_rows=max_exact_rows)
    if got is None:  # over the exact-path bound → LSH scale path
        return embedding_neardup_lsh(
            ds, vec_col=vec_col, id_col=id_col, threshold=threshold
        )

    all_ids, mat = got
    mat_ref = ray.put((all_ids, mat))

    def block_pairs(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _COSINE_SCHEMA.empty_table()
        ids_all, m = ray.get(mat_ref)
        ids_b = batch[id_col].to_numpy(zero_copy_only=False)
        flat = np.asarray(batch[vec_col].combine_chunks().flatten(), dtype=np.float64)
        vb = flat.reshape(len(ids_b), -1)
        nb = np.linalg.norm(vb, axis=1, keepdims=True)
        nb[nb == 0] = 1.0
        sims = (vb / nb) @ m.T
        ia, ja = np.nonzero(sims >= threshold)
        a, b = ids_b[ia], ids_all[ja]
        keep = a < b
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(np.round(sims[ia, ja][keep], 6)),
            }
        )

    return ds.map_batches(block_pairs, batch_format="pyarrow", **remote_env())


_COSINE_SCHEMA = pa.schema(
    [("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())]
)


def embedding_neardup_lsh(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    verify_block_rows: int = 8192,
):
    """Scale path: random-hyperplane LSH — bucket = sign bits of
    ``n_planes`` projections; exact cosine verification only within each
    bucket (groupby). Recall < 1 by construction (near-dups differing in a
    sign bit land apart); raise recall by unioning several plane seeds.

    Hot-bucket hazard (documented, like minhash's): verification is
    quadratic in a bucket's size — a bucket of B vectors scores B² pairs.
    The in-bucket matmul is BLOCKED (``verify_block_rows`` × bucket, so
    the similarity matrix never exceeds block × B floats), but the pair
    *work* stays quadratic: scale ``n_planes`` with the corpus (buckets ≈
    2^n_planes; aim corpus/2^n_planes ≲ 10⁵ rows/bucket) and run
    :func:`exact_dedup` first so identical vectors — the usual hot-bucket
    cause — never reach the LSH stage."""

    def bucketize(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    id_col: batch[id_col],
                    "bucket": pa.array([], pa.int64()),
                    vec_col: batch[vec_col],
                }
            )
        flat = np.asarray(batch[vec_col].combine_chunks().flatten(), dtype=np.float32)
        v = flat.reshape(len(batch), -1)
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((v.shape[1], n_planes)).astype(np.float32)
        bits = (v @ planes) > 0
        bucket = (bits * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(bucket),
                vec_col: batch[vec_col],
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        v = np.stack(g[vec_col].to_numpy())
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        v = v / n
        # row-block × bucket matmul: peak sims memory = block × B floats,
        # not B² — identical pair set at any block size (pure tiling)
        out_a, out_b, out_c = [], [], []
        for s in range(0, len(v), verify_block_rows):
            e = min(s + verify_block_rows, len(v))
            sims = v[s:e] @ v.T  # (block, B)
            hit = sims >= threshold
            # upper triangle only: global col index > global row index
            hit &= np.arange(hit.shape[1])[None, :] > np.arange(s, e)[:, None]
            ia, ib = np.nonzero(hit)
            if len(ia) == 0:
                continue
            a0, b0 = ids[s + ia], ids[ib]
            out_a.append(np.minimum(a0, b0))
            out_b.append(np.maximum(a0, b0))
            out_c.append(np.round(sims[ia, ib].astype(np.float64), 6))
        if not out_a:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "cosine": pd.Series([], dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_a),
                "id_b": np.concatenate(out_b),
                "cosine": np.concatenate(out_c),
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", **remote_env())
        .groupby("bucket")
        .map_groups(verify, batch_format="pandas", **remote_env())
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (prefix-filtered all-pairs)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.8,
    buckets: int | None = None,
):
    """EXACT word-n-gram Jaccard near-dup pairs — the non-sketch member
    of the dedup family (MinHash/SimHash estimate this set; here the
    answer is exact and value-checkable against a SQL twin). Returns a
    Dataset ``(id_a, id_b, inter_n, union_n)`` with one row per pair
    whose distinct-n-gram Jaccard ``inter_n / union_n ≥ threshold``,
    ``id_a < id_b``; the integer sizes ARE the contract (no float
    column to drift).

    Exactness at scale comes from the all-pairs prefix filter (Bayardo
    et al. WWW'07 / ppjoin): under ANY global total order over n-grams,
    two sets with J ≥ t share an element within the first
    ``|S| − ⌈t·|S|⌉ + 1`` elements of each — so only those prefix
    elements enter the inverted index, and candidate generation touches
    ~(1−t)·Σ|S| index rows instead of Σ|S|. Hash order is the global
    order here (rarest-first would prune harder but needs a DF pass;
    at t = 0.8 the index is already 5× smaller than the full explode).

    Stages (all fixed-width exchanges; raw text never shuffles):

    1. per-block doc sets: distinct 64-bit n-gram hashes per doc,
       C-level pair-dedup (:func:`~ulp_ray.stages._tokens
       .distinct_pair_stats`), kept hash-sorted as one list column.
    2. prefix explode → shard by hash (bounded shards) → one vectorized
       self-merge per shard (the minhash LSH pair path's shape) →
       global pair dedup.
    3. verify: two bucketed hash joins co-locate each candidate with
       both sorted sets; exact ``|A∩B|`` via ``np.intersect1d``
       (``assume_unique``, C per pair) — pairs are prefix survivors,
       so the per-pair loop is bounded by the true near-dup rate.

    64-bit gram hashing can only MERGE two distinct n-grams (p ≈ m²/2⁶⁵
    — ~3e−7 at a billion distinct grams); exact at test scale, <<1 gram
    of perturbation at 100 TB. Docs with < n tokens have empty sets and
    never pair. Hot-hash hazard shared with every inverted index: N
    identical docs pair quadratically — run :func:`exact_dedup` first
    (the curation pipeline's order).
    """
    from ._bucket import key_hash_u64
    from ._tokens import distinct_pair_stats, flat_tokens, word_ngrams_flat

    _out_schema = pa.schema(
        [
            ("id_a", pa.int64()),
            ("id_b", pa.int64()),
            ("inter_n", pa.int64()),
            ("union_n", pa.int64()),
        ]
    )
    _sets_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("__set", pa.large_list(pa.uint64())),
            ("__size", pa.int64()),
        ]
    )

    def doc_sets(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _sets_schema.empty_table()
        flat, par = flat_tokens(batch[text_col])
        grams, gpar = word_ngrams_flat(flat, par, n)
        if len(grams) == 0:
            return _sets_schema.empty_table()
        h = key_hash_u64(grams)
        # distinct_pair_stats returns value IDs into its uniq_vals — take
        # the hashes back out and sort each doc's set ascending by hash
        uniq_vals, prow, pvid, _ = distinct_pair_stats(gpar, h)
        hset = np.asarray(uniq_vals, dtype=np.uint64)[pvid]
        order = np.lexsort((hset, prow))
        prow, hset = prow[order], hset[order]
        counts = np.bincount(prow, minlength=len(batch)).astype(np.int64)
        keep_rows = counts > 0  # < n tokens → empty set → never pairs
        offsets = np.concatenate([[0], np.cumsum(counts)])
        sets = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(hset, pa.uint64())
        )
        tbl = pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "__set": sets,
                "__size": pa.array(counts, pa.int64()),
            },
            schema=_sets_schema,
        )
        return tbl.filter(pa.array(keep_rows))

    # the sets feed THREE consumers (prefix index + both verify-join
    # sides) — materialize once (fixed-width uint64 lists, ~the text's
    # size; spills if needed) instead of re-tokenizing the corpus 3×
    sets_ds = ds.map_batches(
        doc_sets, batch_format="pyarrow", **remote_env()
    ).materialize()

    # prefix length |S| − ⌈t·|S|⌉ + 1; the 1e-9 backs t·|S| off float
    # representation error ONLY toward a LONGER prefix (extra candidates
    # are verified away; a shorter prefix would silently drop true pairs)
    def prefix_explode(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.schema(
                [("__h", pa.uint64()), (id_col, pa.int64())]
            ).empty_table()
        sizes = batch["__size"].to_numpy(zero_copy_only=False)
        plen = sizes - np.ceil(threshold * sizes - 1e-9).astype(np.int64) + 1
        plen = np.clip(plen, 1, sizes)
        col = batch["__set"].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.uint64)
        offs = np.asarray(col.offsets, dtype=np.int64)
        base = np.concatenate([[0], np.cumsum(plen)])[:-1]
        idx = np.repeat(offs[:-1], plen) + (
            np.arange(int(plen.sum()), dtype=np.int64) - np.repeat(base, plen)
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "__h": pa.array(flat[idx], pa.uint64()),
                id_col: pa.array(np.repeat(ids, plen), pa.int64()),
                "__sz": pa.array(np.repeat(sizes, plen), pa.int64()),
            }
        )

    n_shards = 64

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = pc.cast(
            pc.bit_wise_and(batch["__h"], pa.scalar(n_shards - 1, pa.uint64())),
            pa.int64(),
        )
        return batch.append_column("shard", shard)

    def shard_pairs(g: pd.DataFrame) -> pa.Table:
        df = g[["__h", id_col, "__sz"]]
        m = df.merge(df, on="__h", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        # size filter (AllPairs): J ≥ t ⟹ |A∩B| ≥ t·max(|A|,|B|) and
        # |A∩B| ≤ min(|A|,|B|) ⟹ min ≥ t·max — pairs with incompatible
        # set sizes can't verify, so don't ship them to the joins (the
        # hash-order prefix alone over-generates on skewed gram
        # distributions; measured at sf0.1: 225k → far fewer candidates)
        sa, sb = m["__sz_a"].to_numpy(), m["__sz_b"].to_numpy()
        m = m[np.minimum(sa, sb) >= threshold * np.maximum(sa, sb)]
        out = m.rename(
            columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"}
        )[["id_a", "id_b"]].drop_duplicates()
        return _typed_pairs(out, _ID_PAIR_SCHEMA)

    cand = (
        sets_ds.map_batches(prefix_explode, batch_format="pyarrow", **remote_env())
        .map_batches(add_shard, batch_format="pyarrow", **remote_env())
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pandas", **remote_env())
    )
    # verify in TWO co-groups (not four exchanges): each co-groups the
    # pair rows with the set rows by hash(id) % B, so pair dedup
    # (duplicates of a pair share id_a → same bucket), set attach, and —
    # in the second pass — the exact-intersection check all run inside
    # one vectorized per-bucket body. The set payload is ONE binary blob
    # per doc (the sorted uint64 set's raw bytes): Arrow's hash join
    # carries a binary column but not a list column.
    from ._bucket import co_group, resolve_buckets

    n_buckets = resolve_buckets(buckets, sets_ds)

    def sets_payload(side: str):
        """Set rows keyed ``id_<side>``, payload ``__blob_<side>``,
        ``__size_<side>``."""

        def fn(batch: pa.Table) -> pa.Table:
            col = batch["__set"].combine_chunks()
            flat = np.asarray(col.flatten(), dtype=np.uint64)
            offs = np.asarray(col.offsets, dtype=np.int64)
            blob = pa.LargeBinaryArray.from_buffers(
                pa.large_binary(),
                len(col),
                [
                    None,
                    pa.py_buffer((offs * 8).tobytes()),
                    pa.py_buffer(flat.tobytes()),
                ],
            )
            return pa.table(
                {
                    f"id_{side}": pc.cast(batch[id_col], pa.int64()),
                    f"__blob_{side}": blob,
                    f"__size_{side}": batch["__size"],
                }
            )

        return sets_ds.map_batches(fn, batch_format="pyarrow", **remote_env())

    # static schemas for the co-groups: schema() on the lazy candidate
    # dataset would run its shuffle (and returns None with zero pairs)
    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    attached_schema = pa.schema(
        list(pair_schema) + [("__blob_a", pa.large_binary()), ("__size_a", pa.int64())]
    )

    # pass 1: co-locate pairs with set_a by hash(id_a); dedup pairs there
    def attach_a(pairs: pa.Table, sets_a: pa.Table) -> pa.Table:
        distinct = pairs.group_by(["id_a", "id_b"]).aggregate([])
        return distinct.join(sets_a, "id_a", join_type="inner")

    pa1 = co_group(
        [(cand, pair_schema), sets_payload("a")], ["id_a"], attach_a, n_buckets
    )

    # pass 2: co-locate with set_b by hash(id_b); verify inside the bucket
    def verify_b(pairs: pa.Table, sets_b: pa.Table) -> pa.Table:
        m = pairs.join(sets_b, "id_b", join_type="inner")
        if not len(m):
            return _out_schema.empty_table()
        sa = [np.frombuffer(b, np.uint64) for b in m["__blob_a"].to_pylist()]
        sb = [np.frombuffer(b, np.uint64) for b in m["__blob_b"].to_pylist()]
        inter = np.fromiter(
            (
                len(np.intersect1d(a, b, assume_unique=True))
                for a, b in zip(sa, sb)
            ),
            dtype=np.int64,
            count=len(m),
        )
        na = m["__size_a"].to_numpy()
        nb = m["__size_b"].to_numpy()
        union = na + nb - inter
        keep = inter >= threshold * union
        return pa.table(
            {
                "id_a": m["id_a"].to_numpy()[keep],
                "id_b": m["id_b"].to_numpy()[keep],
                "inter_n": inter[keep],
                "union_n": union[keep],
            },
            schema=_out_schema,
        )

    return co_group(
        [(pa1, attached_schema), sets_payload("b")], ["id_b"], verify_b, n_buckets
    )


def cross_jaccard_pairs(
    ds,
    probes,
    text_col: str = "text",
    id_col: str = "doc_id",
    probe_text_col: str | None = None,
    probe_id_col: str | None = None,
    n: int = 3,
    threshold: float = 0.8,
    broadcast_max_probes: int = 100_000,
):
    """EXACT word-n-gram Jaccard pairs BETWEEN two corpora — the
    eval-set near-dup decontamination primitive: find every (corpus
    doc, probe doc) pair whose distinct-shingle Jaccard clears
    ``threshold``. Complements the containment-style contamination
    screen (`stages/contamination.py` flags docs sharing even ONE
    probe n-gram; this requires substantial set overlap). Dataset
    ``(id_col, probe_id, inter_n, union_n)`` with the same integer
    contract as :func:`ngram_jaccard_pairs`:
    ``inter_n >= threshold * union_n``.

    Scale shape: the PROBE side (eval/benchmark sets — small by
    nature, capped at ``broadcast_max_probes`` docs) is shingled on
    the driver into an inverted index (unique shingle → probe ids,
    CSR offsets) shipped ONCE via ``ray.put``; the corpus then STREAMS
    — per block: shingle, per-doc dedupe, one ``pc.index_in`` against
    the probe-shingle vocabulary, a CSR expansion to (doc, probe)
    pairs, and one ``np.unique`` count = the exact intersection. No
    corpus shuffle at all; raw text never leaves its block. For probe
    sets beyond the cap, fall back to the Bloom-prefiltered n-gram
    containment join (`stages/contamination.py`) or MinHash.
    """
    import pandas as pd
    import ray

    from ._tokens import flat_tokens, word_ngrams_flat

    pt = probe_text_col or text_col
    pi = probe_id_col or id_col
    n_probes = probes.count()
    if n_probes > broadcast_max_probes:
        raise ValueError(
            f"cross_jaccard_pairs: probe side has {n_probes} rows — above "
            f"broadcast_max_probes={broadcast_max_probes}; use the n-gram "
            "containment screen or MinHash for corpus-sized right sides"
        )

    # driver-side probe prep: per-probe DISTINCT shingles -> inverted
    # index (bounded by the probe cap, not the corpus)
    probe_ids, gram_arrays, gram_probe = [], [], []
    for b in probes.iter_batches(batch_format="pyarrow", batch_size=None):
        flat, par = flat_tokens(b[pt])
        grams, gpar = word_ngrams_flat(flat, par, n)
        g_np = grams.to_numpy(zero_copy_only=False)
        if len(g_np):
            lid, luniq = pd.factorize(g_np)
            key = gpar * np.int64(len(luniq)) + lid
            uk = np.unique(key)
            rows = (uk // len(luniq)).astype(np.int64)
            gram_arrays.append(np.asarray(luniq)[uk % len(luniq)])
            gram_probe.append(rows + len(probe_ids))
        probe_ids.extend(b[pi].to_pylist())
    if gram_arrays:
        all_grams = np.concatenate(gram_arrays)
        all_probe = np.concatenate(gram_probe)
    else:
        all_grams = np.array([], dtype=object)
        all_probe = np.array([], dtype=np.int64)
    vid, vocab = pd.factorize(all_grams)
    order = np.argsort(vid, kind="stable")
    probe_flat = all_probe[order]
    counts = np.bincount(vid, minlength=len(vocab)) if len(vocab) else np.array([], np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    probe_sz = np.bincount(all_probe, minlength=len(probe_ids)).astype(np.int64)
    bundle_ref = ray.put(
        (
            pa.array(np.asarray(vocab), pa.string()) if len(vocab) else pa.array([], pa.string()),
            offsets,
            probe_flat,
            probe_sz,
            np.asarray(probe_ids),
        )
    )
    n_p = max(len(probe_ids), 1)
    # ship the TYPE, not the id list — the list must only travel once,
    # inside the ray.put bundle, never in every task's closure
    probe_id_type = (
        pa.array(np.asarray(probe_ids)[:0]).type if probe_ids else pa.int64()
    )

    def score(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                (id_col, batch.schema.field(id_col).type),
                ("probe_id", probe_id_type),
                ("inter_n", pa.int64()),
                ("union_n", pa.int64()),
            ]
        )
        vocab_keys, offs, pflat, psz, pids = ray.get(bundle_ref)
        if len(vocab_keys) == 0:
            return out_schema.empty_table()
        flat, par = flat_tokens(batch[text_col])
        grams, gpar = word_ngrams_flat(flat, par, n)
        g_np = grams.to_numpy(zero_copy_only=False)
        if not len(g_np):
            return out_schema.empty_table()
        lid, luniq = pd.factorize(g_np)
        L = len(luniq)
        key = gpar * np.int64(L) + lid
        uk = np.unique(key)
        rows = (uk // L).astype(np.int64)
        lids = (uk % L).astype(np.int64)
        doc_sz = np.bincount(rows, minlength=batch.num_rows).astype(np.int64)
        vmap = (
            pc.fill_null(
                pc.index_in(pa.array(np.asarray(luniq), pa.string()), value_set=vocab_keys),
                -1,
            )
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        v = vmap[lids]
        keep = v >= 0
        if not keep.any():
            return out_schema.empty_table()
        rows_k, v_k = rows[keep], v[keep]
        start, cnt = offs[v_k], offs[v_k + 1] - offs[v_k]
        total = int(cnt.sum())
        if total == 0:
            return out_schema.empty_table()
        # CSR range gather: probe ids of every (doc, shingle) expansion
        base = np.repeat(start, cnt)
        step = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        probes_e = pflat[base + step]
        docs_e = np.repeat(rows_k, cnt)
        pair = docs_e * np.int64(n_p) + probes_e
        upair, inter = np.unique(pair, return_counts=True)
        d = (upair // n_p).astype(np.int64)
        p = (upair % n_p).astype(np.int64)
        union = doc_sz[d] + psz[p] - inter
        ok = inter >= threshold * union
        if not ok.any():
            return out_schema.empty_table()
        return pa.table(
            {
                id_col: batch[id_col].take(pa.array(d[ok])),
                "probe_id": pa.array(pids[p[ok]]),
                "inter_n": pa.array(inter[ok].astype(np.int64)),
                "union_n": pa.array(union[ok].astype(np.int64)),
            },
            schema=out_schema,
        )

    return ds.map_batches(
        score, batch_format="pyarrow", batch_size=None, **remote_env()
    )
