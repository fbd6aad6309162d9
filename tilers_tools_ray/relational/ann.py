"""Similarity search over embedding columns (graft scope).

  brute_topk — exact cosine top-k: numpy matmul per batch against a
               broadcast query matrix (the baseline; one pass over the
               table, per-batch partial top-k, tiny final merge).
  ivf_topk   — IVF-style scale path: seeded-centroid coarse quantizer
               (k-means-lite, built once on the driver from a sample),
               assign rows to cells per batch, probe only the
               ``nprobe`` nearest cells per query.

Both return (query_id, vec_id, rank) with deterministic tie-breaks
(score DESC, vec_id ASC). Scores are computed in float64.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import ops


def _normalize(m):
    m = np.asarray(m, dtype=np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n == 0, 1.0, n)


class BruteScorer:
    """Per-batch exact scorer vs the broadcast ``{"qids", "vecs"}``
    queries (state: normalized query matrix, built once per worker)."""

    def __init__(self, q, k, exclude_self=True):
        self.qids = np.asarray(q["qids"], dtype=np.int64)
        self.qm = _normalize(q["vecs"])
        self.k = int(k)
        self.exclude_self = exclude_self

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(np.stack(batch["embedding"].to_numpy()))
        vids = batch["vec_id"].to_numpy(dtype=np.int64)
        scores = self.qm @ vecs.T  # (nq, nb)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.qids):
            s = scores[qi]
            mask = vids != qid if self.exclude_self else np.ones(len(vids), bool)
            idx = np.flatnonzero(mask)
            if len(idx) == 0:
                continue
            take = min(self.k, len(idx))
            part = idx[np.argpartition(-s[idx], take - 1)[:take]]
            out_q.extend([qid] * len(part))
            out_v.extend(vids[part].tolist())
            out_s.extend(s[part].tolist())
        return pd.DataFrame(
            {"query_id": out_q, "vec_id": out_v, "score": out_s}
        )


def _finalize_topk(partials_ds, k):
    """Merge per-batch partials: groupby(query_id) → global top-k with
    (score DESC, vec_id ASC) tie-break → rank column."""

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["score", "vec_id"], ascending=[False, True]
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "vec_id", "rank"]]

    return partials_ds.groupby("query_id").map_groups(
        final, batch_format="pandas"
    )


def brute_topk(emb_ds, query_ids, query_vecs, k=10):
    """Exact cosine top-k for each query vector. Returns a Dataset of
    (query_id, vec_id, rank). Scoring runs in plain tasks fused with
    the read; each worker builds its :class:`BruteScorer` once
    (``ops.worker_cached``), so no actor pool is started."""
    import ray

    ref = ray.put({"qids": list(query_ids), "vecs": np.asarray(query_vecs)})

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        return ops.worker_cached(ref, lambda q: BruteScorer(q, k))(batch)

    partials = emb_ds.map_batches(score, batch_format="pandas", batch_size=4096)
    return _finalize_topk(partials, k)


# ---------------------------------------------------------------------------
# IVF (scale path)
# ---------------------------------------------------------------------------


def _sample_hash(vec_ids, seed):
    """Per-row uint64 hash of (vec_id, seed): a splitmix64 finalizer
    over pandas' stable value hash, so it depends on the row alone."""
    h = pd.util.hash_array(np.asarray(vec_ids)) ^ np.uint64(
        (seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    )
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _seeded_sample(emb_ds, cap, seed=11):
    """Fixed-size seeded sample for centroid training.

    Bounds driver materialization to ~``cap`` rows regardless of corpus
    size (k-means-lite needs 10^3-10^4 points whether the table has 1e5
    or 1e12 rows): a metadata-only count() picks the sampling fraction,
    rows whose (vec_id, seed) hash falls under that fraction of the
    hash range are kept, and the driver keeps the ``cap`` smallest
    hashes. Membership depends on each row alone, never on block or
    arrival order, so two calls return the same rows; they come back
    sorted by vec_id for a run-deterministic centroid init."""
    n = emb_ds.count()
    if n <= cap:
        rows = emb_ds.take_all()
    else:
        # 1.25x slack so the cap binds, not sample variance
        thr = np.uint64(min(int((cap * 1.25) / n * 2**64), 2**64 - 1))

        def keep(b: pa.Table, _seed=seed, _thr=thr) -> pa.Table:
            h = _sample_hash(b.column("vec_id").to_numpy(zero_copy_only=False), _seed)
            sel = h < _thr
            return b.filter(pa.array(sel)).append_column(
                "__h", pa.array(h[sel], pa.uint64())
            )

        kept = emb_ds.map_batches(keep, batch_format="pyarrow").take_all()
        rows = sorted(kept, key=lambda r: r["__h"])[:cap]
        for r in rows:
            del r["__h"]
    return sorted(rows, key=lambda r: r["vec_id"])


def train_centroids(sample_vecs, n_cells=16, iters=5, seed=11):
    """k-means-lite on a driver-side sample (deterministic seed).

    Deliberately UNIFORM-seeded, not k-means++: as the IVF coarse
    quantizer on weakly-structured embeddings, the clumpier uniform
    draw yields higher probe-mass recall (measured 0.53 vs 0.46 at
    nprobe=3/16 cells on the driver corpus); the clustering operator
    :func:`kmeans` uses :func:`_kmeanspp_init` instead, where cluster
    RECOVERY (not probe recall) is the objective."""
    x = _normalize(sample_vecs)
    rng = np.random.default_rng(seed)
    cent = x[rng.choice(len(x), size=min(n_cells, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


class IVFScorer:
    """Probe-limited scorer: score a batch row only for queries whose
    ``nprobe`` nearest cells include the row's cell."""

    def __init__(self, queries_ref, centroids_ref, k, nprobe=3):
        import ray

        q = queries_ref if isinstance(queries_ref, dict) else ray.get(queries_ref)
        self.qids = np.asarray(q["qids"], dtype=np.int64)
        self.qm = _normalize(q["vecs"])
        self.cent = (
            centroids_ref
            if isinstance(centroids_ref, np.ndarray)
            else ray.get(centroids_ref)
        )
        self.k = int(k)
        qc = self.qm @ self.cent.T
        self.probe = np.argsort(-qc, axis=1)[:, :nprobe]  # (nq, nprobe)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(np.stack(batch["embedding"].to_numpy()))
        vids = batch["vec_id"].to_numpy(dtype=np.int64)
        cells = np.argmax(vecs @ self.cent.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.qids):
            in_probe = np.isin(cells, self.probe[qi]) & (vids != qid)
            idx = np.flatnonzero(in_probe)
            if len(idx) == 0:
                continue
            s = vecs[idx] @ self.qm[qi]
            take = min(self.k, len(idx))
            part = np.argpartition(-s, take - 1)[:take]
            out_q.extend([qid] * take)
            out_v.extend(vids[idx[part]].tolist())
            out_s.extend(s[part].tolist())
        return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "score": out_s})


def ivf_topk(
    emb_ds,
    query_ids,
    query_vecs,
    k=10,
    n_cells=16,
    nprobe=3,
    sample_cap=8192,
    concurrency=(1, 8),
):
    """Approximate cosine top-k via IVF cells. Trains the coarse
    quantizer on a bounded seeded sample (``sample_cap`` rows max on
    the driver, corpus-size-independent), broadcasts centroids +
    queries."""
    import ray

    sample = _seeded_sample(emb_ds, sample_cap)
    cent = train_centroids(
        np.stack([r["embedding"] for r in sample]), n_cells=n_cells
    )
    qref = ray.put({"qids": list(query_ids), "vecs": np.asarray(query_vecs)})
    cref = ray.put(cent)
    partials = emb_ds.map_batches(
        IVFScorer,
        fn_constructor_kwargs={
            "queries_ref": qref,
            "centroids_ref": cref,
            "k": k,
            "nprobe": nprobe,
        },
        batch_format="pandas",
        batch_size=4096,
        concurrency=concurrency,
    )
    return _finalize_topk(partials, k)


class HyperplaneHasher:
    """Random-hyperplane LSH signatures (Charikar, STOC'02): ``n_words``
    64-bit words per vector, bit b = sign(v · h_b) for seeded gaussian
    hyperplanes. P[bit differs] = θ/π for a pair at angle θ, so
    signature hamming distance is a binomial estimator of the angle.
    The hyperplane matrix is built once per actor on the first batch
    (dimension inferred; deterministic from the seed, so every actor
    builds the identical matrix)."""

    def __init__(self, n_words=2, seed=7):
        self.n_words = int(n_words)
        self.seed = int(seed)
        self.h = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:  # np.stack([]) raises; typed empty out
            # (same empty-batch policy as SemiVecs)
            out = {"vec_id": pd.array([], dtype="int64")}
            for w in range(self.n_words):
                out[f"lsh{w}"] = pd.array([], dtype="int64")
            return pd.DataFrame(out)
        vecs = _normalize(np.stack(batch["embedding"].to_numpy()))
        d = vecs.shape[1]
        if self.h is None or self.h.shape[0] != d:
            rng = np.random.default_rng(self.seed)
            self.h = rng.standard_normal((d, 64 * self.n_words))
        bits = (vecs @ self.h) >= 0.0
        packed = np.packbits(bits, axis=1)  # (n, 8 * n_words) uint8
        out = {"vec_id": batch["vec_id"].to_numpy(dtype=np.int64)}
        for w in range(self.n_words):
            word = np.ascontiguousarray(packed[:, w * 8 : (w + 1) * 8])
            out[f"lsh{w}"] = word.view(np.int64).ravel()  # bit-preserving
        return pd.DataFrame(out)


def embedding_lsh_dup_pairs(
    emb_ds,
    threshold=0.95,
    max_word_hamming=8,
    n_words=2,
    seed=7,
    verify_limit=2_000_000,
    concurrency=(1, 8),
):
    """Embedding near-dup pairs via random-hyperplane LSH — the
    APPROXIMATE scale path complementing :func:`embedding_cosine_dup_pairs`
    (which is exact but scores every surviving IVF sub-block pair).

    Pipeline: hyperplane signatures (actor pool, one streaming pass)
    → per-word pigeonhole banded hamming pairs (``dedup.hamming_band_pairs``
    — complete recall at word-hamming ≤ ``max_word_hamming``, the blocks
    scheme keeps band keys ~13 bits wide at scale) → union across words
    → exact-cosine verify of the candidates (semi-filtered vector fetch
    by candidate id — the embedding table is never broadcast or
    collected; ≤ 2 × n_candidates vectors leave the table).

    Precision is EXACT (float64 cosine verify); recall is probabilistic
    in the signature layer: a pair at angle θ has per-word hamming
    ~ Binomial(64, θ/π), so P[found] = 1 − (1 − P[X ≤ h])^n_words —
    ≈ 0.96 at cos 0.95 and ≈ 0.999 at cos ≥ 0.98 with the defaults.
    Returns (vec_a, vec_b, score), vec_a < vec_b, sorted."""
    import ray

    from . import dedup as D

    sigs = emb_ds.map_batches(
        HyperplaneHasher,
        fn_constructor_kwargs={"n_words": n_words, "seed": seed},
        batch_format="pandas",
        batch_size=4096,
        concurrency=concurrency,
    ).materialize()  # consumed once per word by the banding passes

    frames = []
    for w in range(n_words):
        f = D.hamming_band_pairs(
            sigs,
            id_col="vec_id",
            hash_col=f"lsh{w}",
            max_hamming=max_word_hamming,
        )
        if len(f):
            frames.append(f[["doc_a", "doc_b"]])
    empty = pd.DataFrame(
        {
            "vec_a": pd.array([], dtype="int64"),
            "vec_b": pd.array([], dtype="int64"),
            "score": pd.array([], dtype="float64"),
        }
    )
    if not frames:
        return empty
    cands = pd.concat(frames, ignore_index=True).drop_duplicates(
        ["doc_a", "doc_b"]
    )
    if len(cands) > verify_limit:
        raise ValueError(
            f"{len(cands)} LSH candidates exceed verify_limit="
            f"{verify_limit}; tighten max_word_hamming or use the exact "
            "embedding_cosine_dup_pairs path"
        )

    # exact verify: fetch ONLY the candidate vectors (semi-filter by
    # broadcast id set — no shuffle, table never collected)
    wanted = np.union1d(cands["doc_a"].to_numpy(), cands["doc_b"].to_numpy())
    wref = ray.put(wanted)

    class SemiVecs:
        def __init__(self):
            self.ids = ray.get(wref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            hit = b[np.isin(b["vec_id"].to_numpy(dtype=np.int64), self.ids)]
            if len(hit) == 0:
                return pd.DataFrame(
                    {
                        "vec_id": pd.array([], dtype="int64"),
                        "vec": pd.array([], dtype=object),
                    }
                )
            m = _normalize(np.stack(hit["embedding"].to_numpy()))
            return pd.DataFrame(
                {
                    "vec_id": hit["vec_id"].to_numpy(dtype=np.int64),
                    "vec": [v.tobytes() for v in m],
                }
            )

    matched = (
        emb_ds.map_batches(
            SemiVecs, batch_format="pandas", batch_size=4096, concurrency=2
        ).to_pandas()  # ≤ 2 × n_cands rows (post-LSH, bounded above)
    )
    order = np.argsort(matched["vec_id"].to_numpy(dtype=np.int64))
    ids_sorted = matched["vec_id"].to_numpy(dtype=np.int64)[order]
    mat = np.frombuffer(
        b"".join(matched["vec"].to_numpy()[order]), dtype=np.float64
    ).reshape(len(ids_sorted), -1)
    a = cands["doc_a"].to_numpy(dtype=np.int64)
    b = cands["doc_b"].to_numpy(dtype=np.int64)
    va = mat[np.searchsorted(ids_sorted, a)]
    vb = mat[np.searchsorted(ids_sorted, b)]
    score = np.einsum("ij,ij->i", va, vb)
    keep = score >= threshold
    if not keep.any():
        return empty
    a, b, score = a[keep], b[keep], score[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out = pd.DataFrame({"vec_a": lo, "vec_b": hi, "score": np.round(score, 6)})
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def embedding_cosine_dup_pairs(
    emb_ds,
    threshold=0.98,
    n_cells=16,
    sample_cap=8192,
    sub_rows=8192,
    concurrency=(1, 8),
):
    """Embedding-cosine near-dup detection, IVF-cell-bucketed and EXACT.

    Candidate generation is bucketed by IVF cell with a triangle-
    inequality pruning bound, then every surviving sub-block pair is
    scored with an exact float64 block matmul — so the output matches
    the all-pairs SQL oracle bit-for-bit while never collecting the
    table on the driver:

      1. bounded seeded-sample k-means-lite centroids (≤``sample_cap``
         rows on the driver, corpus-size-independent; broadcast);
      2. one streaming pass: per-batch cell assignment + per-cell
         partial (count, max distance-to-centroid) → tiny driver merge
         (one row per cell);
      3. cell-pair pruning: on unit vectors cos ≥ t ⇔ ‖a−b‖ ≤
         √(2−2t), so pair (i,j) can hold a qualifying pair only if
         d(cᵢ,cⱼ) − rᵢ − rⱼ ≤ √(2−2t) (exact bound — no recall loss;
         prunes aggressively at real dup thresholds ≥0.9, degrades to
         distributed exact all-block-pairs for loose thresholds);
      4. sub-blocking: the stats pass gives each cell's row count, so
         the driver splits every cell into ⌈n/``sub_rows``⌉ fixed-size
         sub-blocks and enumerates pair tasks at SUB-BLOCK granularity
         (intra-cell: si ≤ sj; cross-cell: all si × sj). No single
         Arrow row ever exceeds ``sub_rows`` vectors, so a hot cell at
         10¹² scale becomes many bounded pair tasks instead of one
         multi-GB row;
      5. second pass: shuffle vectors by cell (groupby(cell) — ONE
         wide exchange), pack each sorted sub-block into a compact
         float64 row, replicate to its surviving partner pairs, and
         score each pair group independently (same-sub-block pairs use
         the upper triangle, cross pairs a full matmul).

    Returns (vec_a, vec_b, score) with vec_a < vec_b, sorted."""
    import ray

    sample = _seeded_sample(emb_ds, sample_cap)
    cent = train_centroids(
        np.stack([r["embedding"] for r in sample]), n_cells=n_cells
    )
    cref = ray.put(cent)
    k = len(cent)

    class AssignStats:
        """Pass 1: per-batch per-cell (n, max radius) partials."""

        def __init__(self, centroids_ref):
            self.cent = ray.get(centroids_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            vecs = _normalize(np.stack(batch["embedding"].to_numpy()))
            sims = vecs @ self.cent.T
            cells = np.argmax(sims, axis=1)
            # ‖v − c‖² = 2 − 2·cos on unit vectors
            d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * sims[np.arange(len(vecs)), cells]))
            df = pd.DataFrame({"cell": cells, "r": d})
            return df.groupby("cell", as_index=False).agg(
                n=("r", "size"), r_max=("r", "max")
            )

    stats = (
        emb_ds.map_batches(
            AssignStats,
            fn_constructor_kwargs={"centroids_ref": cref},
            batch_format="pandas",
            batch_size=4096,
            concurrency=concurrency,
        )
        .to_pandas()  # tiny: ≤ n_batches × n_cells rows
        .groupby("cell", as_index=False)
        .agg(n=("n", "sum"), r_max=("r_max", "max"))
    )
    radius = np.zeros(k)
    radius[stats["cell"].to_numpy()] = stats["r_max"].to_numpy()
    counts = np.zeros(k, dtype=np.int64)
    counts[stats["cell"].to_numpy()] = stats["n"].to_numpy()
    live = set(stats["cell"].tolist())
    dmax = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold))) + 1e-9
    cdist = np.sqrt(
        np.maximum(0.0, 2.0 - 2.0 * np.clip(cent @ cent.T, -1.0, 1.0))
    )
    survivors = [
        (i, j)
        for i in range(k)
        for j in range(i, k)
        if i in live
        and j in live
        and cdist[i, j] - radius[i] - radius[j] <= dmax
    ]
    # expand surviving cell pairs to sub-block pairs (step 4 above):
    # the per-cell counts from the stats pass tell us how many
    # sub-blocks each cell splits into, so pair tasks are enumerated
    # driver-side with bounded per-task payloads.
    n_sub = {c: max(1, -(-int(counts[c]) // sub_rows)) for c in live}
    partners = {}  # (cell, sub_idx) -> [(pair_id, role)]
    pid = 0
    for i, j in survivors:
        for si in range(n_sub[i]):
            sj_start = si if j == i else 0
            for sj in range(sj_start, n_sub[j]):
                partners.setdefault((i, si), []).append((pid, 0))
                if (j, sj) != (i, si):
                    partners.setdefault((j, sj), []).append((pid, 1))
                pid += 1

    class AssignCell:
        def __init__(self, centroids_ref):
            self.cent = ray.get(centroids_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            vecs = _normalize(np.stack(batch["embedding"].to_numpy()))
            return pd.DataFrame(
                {
                    "vec_id": batch["vec_id"].to_numpy(dtype=np.int64),
                    "cell": np.argmax(vecs @ self.cent.T, axis=1),
                    "vec": [v.tobytes() for v in vecs],  # float64 unit rows
                }
            )

    assigned = emb_ds.map_batches(
        AssignCell,
        fn_constructor_kwargs={"centroids_ref": cref},
        batch_format="pandas",
        batch_size=4096,
        concurrency=concurrency,
    )

    def pack_cell(g: pd.DataFrame) -> pd.DataFrame:
        # split the sorted cell into fixed-size sub-blocks; each packed
        # row holds at most sub_rows vectors (bounded regardless of
        # cell skew) and is replicated to its surviving pair tasks.
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        vec_list = g["vec"].tolist()
        cell = int(g["cell"].iloc[0])
        out = []
        for si in range(max(1, -(-len(ids) // sub_rows))):
            lo, hi = si * sub_rows, min((si + 1) * sub_rows, len(ids))
            sub_ids = ids[lo:hi].tobytes()
            sub_mat = b"".join(vec_list[lo:hi])
            for pair_id, role in partners.get((cell, si), []):
                out.append(
                    {"pair": pair_id, "role": role, "ids": sub_ids, "mat": sub_mat}
                )
        if not out:
            return pd.DataFrame(
                {"pair": pd.array([], dtype="int64"),
                 "role": pd.array([], dtype="int64"),
                 "ids": pd.array([], dtype=object),
                 "mat": pd.array([], dtype=object)}
            )
        return pd.DataFrame(out)

    # pin the packed/replicated cell blocks before the pair groupby
    # (Ray 2.49: chained all-to-alls over a lazy boundary thrash)
    replicated = assigned.groupby("cell").map_groups(
        pack_cell, batch_format="pandas"
    ).materialize()

    def score_pair(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "vec_a": pd.array([], dtype="int64"),
                "vec_b": pd.array([], dtype="int64"),
                "score": pd.array([], dtype="float64"),
            }
        )
        blocks = {}
        for _, row in g.iterrows():
            ids = np.frombuffer(row["ids"], dtype=np.int64)
            mat = np.frombuffer(row["mat"], dtype=np.float64).reshape(len(ids), -1)
            blocks[int(row["role"])] = (ids, mat)
        if len(blocks) == 1:  # intra-cell pair (i == i)
            ids, mat = blocks[0]
            s = mat @ mat.T
            iu = np.triu_indices(len(ids), k=1)
            mask = s[iu] >= threshold
            a, b = ids[iu[0][mask]], ids[iu[1][mask]]
            sc = s[iu][mask]
        else:  # cross-cell pair
            ids_a, mat_a = blocks[0]
            ids_b, mat_b = blocks[1]
            s = mat_a @ mat_b.T
            ai, bi = np.nonzero(s >= threshold)
            a, b, sc = ids_a[ai], ids_b[bi], s[ai, bi]
        if len(a) == 0:
            return empty
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"vec_a": lo, "vec_b": hi, "score": np.round(sc, 6)})

    df = (
        replicated.groupby("pair")
        .map_groups(score_pair, batch_format="pandas")
        .to_pandas()  # final result: the qualifying pair list only
    )
    if len(df) == 0:
        return pd.DataFrame(
            {
                "vec_a": pd.array([], dtype="int64"),
                "vec_b": pd.array([], dtype="int64"),
                "score": pd.array([], dtype="float64"),
            }
        )
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def _kmeanspp_init(x, k, seed):
    """k-means++ seeding (Arthur & Vassilvitskii, SODA'07) on the
    normalized driver-side sample: each next seed is drawn with
    probability ∝ cosine distance to its nearest chosen seed —
    avoids the merged-cluster local optima plain random init falls
    into. Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    k = min(k, len(x))
    idx = [int(rng.integers(len(x)))]
    d = np.maximum(1.0 - x @ x[idx[0]], 0.0)
    for _ in range(1, k):
        tot = d.sum()
        if tot <= 0:  # all points coincide with a seed
            nxt = int(rng.integers(len(x)))
        else:
            nxt = int(rng.choice(len(x), p=d / tot))
        idx.append(nxt)
        d = np.minimum(d, np.maximum(1.0 - x @ x[nxt], 0.0))
    return x[idx].copy()


def kmeans(
    emb_ds,
    k=10,
    iters=8,
    seed=11,
    sample_cap=8192,
    batch_size=4096,
    vec_col="embedding",
):
    """Distributed spherical k-means (Lloyd's) over the FULL corpus —
    the iterative-ML operator shape: init from a bounded seeded-sample
    k-means-lite (corpus-size-independent driver memory, same
    discipline as :func:`ivf_topk`), then each Lloyd iteration is ONE
    streaming pass where every batch reduces to a fixed-size partial —
    the k×d float64 sum matrix plus k counts, ~(k·d·8) bytes per BATCH
    regardless of batch rows — and the driver folds O(blocks) such
    rows into the new centroids (k×d driver memory total). Centroids
    ship via ray.put once per iteration; rows are L2-normalized so
    assignment is an argmax matmul (cosine). Ties and empty clusters
    are deterministic: argmax takes the lowest index, an emptied
    cluster keeps its previous centroid.

    Returns ``(centroids, stats)``: centroids ``[k, d]`` float64 and a
    per-cluster DataFrame ``(cluster, n, inertia)`` from a final
    assignment pass, where inertia sums ``1 − cos(x, c)`` (rounded to
    6 decimals — a float sum over a fixed assignment, stable at that
    precision)."""
    import ray

    sample = _seeded_sample(emb_ds, sample_cap, seed=seed)
    cent = _kmeanspp_init(
        _normalize(np.stack([r[vec_col] for r in sample])), k, seed
    )
    k = len(cent)  # may be < requested on tiny inputs
    emb_ds = emb_ds.select_columns([vec_col]).materialize()  # iterated

    for _ in range(iters):
        cref = ray.put(cent)

        def partial(b: pd.DataFrame, _cref=cref, _k=k) -> pd.DataFrame:
            c = ray.get(_cref)  # zero-copy plasma view, local after 1st
            if len(b) == 0:  # zero partial is the merge identity
                return pd.DataFrame(
                    {
                        "sums": [np.zeros((_k, c.shape[1])).tobytes()],
                        "counts": [
                            np.zeros(_k, dtype=np.int64).tobytes()
                        ],
                    }
                )
            x = _normalize(np.stack(b[vec_col].to_numpy()))
            a = np.argmax(x @ c.T, axis=1)
            sums = np.zeros((_k, x.shape[1]))
            np.add.at(sums, a, x)
            counts = np.bincount(a, minlength=_k).astype(np.int64)
            return pd.DataFrame(
                {"sums": [sums.tobytes()], "counts": [counts.tobytes()]}
            )

        agg = emb_ds.map_batches(
            partial, batch_format="pandas", batch_size=batch_size
        )
        S = np.zeros_like(cent)
        C = np.zeros(k, dtype=np.int64)
        for b in agg.iter_batches(batch_format="pandas"):
            for sb, cb in zip(b["sums"], b["counts"]):
                S += np.frombuffer(sb, dtype=np.float64).reshape(cent.shape)
                C += np.frombuffer(cb, dtype=np.int64)
        nz = C > 0
        new = cent.copy()
        new[nz] = S[nz] / C[nz, None]
        cent = _normalize(new)

    # final assignment pass → per-cluster counts + inertia
    cref = ray.put(cent)

    def stats_partial(b: pd.DataFrame, _cref=cref, _k=k) -> pd.DataFrame:
        c = ray.get(_cref)
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "counts": [np.zeros(_k, dtype=np.int64).tobytes()],
                    "inertia": [np.zeros(_k).tobytes()],
                }
            )
        x = _normalize(np.stack(b[vec_col].to_numpy()))
        s = x @ c.T
        a = np.argmax(s, axis=1)
        best = s[np.arange(len(a)), a]
        counts = np.bincount(a, minlength=_k).astype(np.int64)
        inertia = np.zeros(_k)
        np.add.at(inertia, a, 1.0 - best)
        return pd.DataFrame(
            {"counts": [counts.tobytes()], "inertia": [inertia.tobytes()]}
        )

    C = np.zeros(k, dtype=np.int64)
    inert = np.zeros(k)
    for b in emb_ds.map_batches(
        stats_partial, batch_format="pandas", batch_size=batch_size
    ).iter_batches(batch_format="pandas"):
        for cb, ib in zip(b["counts"], b["inertia"]):
            C += np.frombuffer(cb, dtype=np.int64)
            inert += np.frombuffer(ib, dtype=np.float64)
    stats = pd.DataFrame(
        {
            "cluster": np.arange(k, dtype=np.int64),
            "n": C,
            "inertia": np.round(inert, 6),
        }
    )
    return cent, stats


def kmeans_assign(emb_ds, centroids, batch_size=4096, vec_col="embedding"):
    """Assign every row to its nearest (cosine) centroid — a streaming
    map_batches against the broadcast centroid matrix. Returns a
    Dataset of (vec_id, cluster)."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(b: pd.DataFrame, _cref=cref) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(dtype="int64"),
                    "cluster": pd.Series(dtype="int64"),
                }
            )
        c = ray.get(_cref)
        x = _normalize(np.stack(b[vec_col].to_numpy()))
        return pd.DataFrame(
            {
                "vec_id": b["vec_id"].astype("int64"),
                "cluster": np.argmax(x @ c.T, axis=1).astype("int64"),
            }
        )

    return emb_ds.map_batches(
        assign, batch_format="pandas", batch_size=batch_size
    )
