"""Generic relational operators: plain-task scans, broadcast lookups,
and Ray Data for the wide steps (SURVEY.md §2 J5, A, O, D).

The reference has no relational layer; this exists for the driver's
DuckDB-oracle correctness gate (``__ray_entry__.py`` contract) and as
the engine's general-purpose query toolkit. Patterns follow
ray_guide.md: broadcast the small side of a join (``ray.put`` once,
pandas merge per batch), bucket-hash both sides when large
(tagged union → ``groupby(bucket)`` → per-bucket pandas merge),
pre-aggregate inside ``map_batches`` before any groupby.

:func:`read` returns a lazy :class:`~tilers_tools_ray.scan.Scan`, not
a Ray Data ``Dataset``: per-batch maps chain onto it, and collecting it
(``to_pandas``, ``count``, ``materialize``) runs the read and the maps
as one plain Ray task per unit (a row group, or a row slice of one when
row groups are fewer than CPUs), with no Ray Data job. Any other
``Dataset`` method (groupby, sort, join, union, an actor pool) replays
the scan as the Ray Data plan it stands for and runs there.

Every broadcast lookup (merge, semi/anti key filter, Bloom test,
candidate count) is a stateless per-batch map that fetches its state
through :func:`worker_cached`, so it runs inside the scan's tasks (or
fuses into Ray Data's read) and no actor pool is started. A join
partitions (Ray's hash shuffle, which starts one aggregator actor per
partition) only when its size guard says the small side does not fit
``broadcast_limit``.
"""

from __future__ import annotations

import functools
import math
import os
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..scan import Scan, _num_blocks

TABLES = (
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
)


def _parquet_files(path):
    if isinstance(path, (list, tuple)):
        return list(path)
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
        )
    return [path]


def _row_groups(path):
    """``(file, row group, rows)`` of every row group, in input order,
    from the footers (read on a thread pool for a many-part directory)."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    files = _parquet_files(path)
    with ThreadPoolExecutor(max_workers=max(1, min(16, len(files)))) as pool:
        metas = list(pool.map(pq.read_metadata, files))
    return [
        (f, i, m.row_group(i).num_rows)
        for f, m in zip(files, metas)
        for i in range(m.num_row_groups)
    ]


def _aligned_num_blocks(path):
    """Row-group-aligned block count for a parquet read. Ray 2.49's
    default applies a 200-block parallelism floor; when the input has
    fewer row groups than blocks, EVERY block re-reads (and slices) a
    whole row group — measured 3.1 s vs 0.2 s for a 2-column scan of
    the 1-row-group sf0.1 lineitem, a silent 15x read amplification
    on every small-row-group table. Rule: at least the CPU count (so
    downstream map stages keep full parallelism), anchored at the
    input's actual row-group total, and capped at Ray's own 200 floor
    only when the row groups are fewer than that (an input with more
    row groups keeps one block per row group). Amplification is then
    bounded by ncpu/row_groups of a column-pruned read (measured
    0.34 s worst case) instead of 200/row_groups."""
    return _num_blocks(len(_row_groups(path)))


def _slice_units(groups):
    """The scan plan of ``read``: :func:`_aligned_num_blocks`' count of
    units. With at least that many row groups each is one unit; with
    fewer, each row group is cut into row slices in proportion to its
    rows, so there is still a unit per CPU. A unit is
    ``(file, row group, first row, end row)``; empty row groups are
    dropped, and an empty input is no unit."""
    k = _num_blocks(len(groups))
    groups = [g for g in groups if g[2]]
    total = sum(n for *_, n in groups)
    units = []
    for f, i, n in groups:
        s = min(n, max(1, math.ceil(k * n / total))) if len(groups) < k else 1
        units += [(f, i, n * j // s, n * (j + 1) // s) for j in range(s)]
    return units


def _read_slice(unit, columns):
    """One unit's rows as one table: its row group streamed with
    ``iter_batches``, keeping only the slice's rows and stopping at its
    last one, so a task holds its slice plus one batch, never the whole
    row group. (One table, not a piece per batch: Ray's concat of
    tables that carry pandas metadata logs "Failed to hash the
    schemas" for every call.)"""
    import pyarrow.parquet as pq

    f, i, lo, hi = unit
    if i is None:  # an empty input: zero rows, typed
        schema = pq.read_schema(f)
        return [schema.empty_table().select(columns or schema.names)]
    pieces, pos = [], 0
    pf = pq.ParquetFile(f)
    for batch in pf.iter_batches(row_groups=[i], columns=columns):
        end = pos + batch.num_rows
        if end > lo:
            a = max(lo - pos, 0)
            piece = batch.slice(a, min(hi, end) - pos - a)
            if piece.num_rows < batch.num_rows:
                # copied: a view would pin the whole batch
                piece = piece.take(pa.array(np.arange(piece.num_rows)))
            pieces.append(piece)
        pos = end
        if pos >= hi:
            break
    return [pa.Table.from_batches(pieces, schema=pieces[0].schema)]


def read(sf_dir, table, columns=None):
    """A lazy plain-task scan (:class:`Scan`) of one table: one task
    per :func:`_slice_units` unit. Its Ray Data plan, for any wide
    step, is ``read_parquet`` with :func:`_aligned_num_blocks`."""
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    groups = _row_groups(path)
    units = _slice_units(groups) or [(_parquet_files(path)[0], None, 0, 0)]
    return Scan(
        units,
        functools.partial(_read_slice, columns=columns),
        functools.partial(
            rd.read_parquet,
            path,
            columns=columns,
            override_num_blocks=_num_blocks(len(groups)),
        ),
        rows=sum(n for *_, n in groups),
    )


def read_pandas(sf_dir, table, columns=None):
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    ).to_pandas()


def table_rows(sf_dir, table):
    """Row count straight from parquet footer metadata — a FREE size
    guard (no Ray execution, no data read) for deciding
    broadcast-vs-distributed before touching a dimension table."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, f"{table}.parquet")
    if os.path.isdir(path):  # multi-file layout
        total = 0
        for f in sorted(os.listdir(path)):
            if f.endswith(".parquet"):
                total += pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
        return total
    return pq.ParquetFile(path).metadata.num_rows


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


_WORKER_CACHE_SIZE = 4
_worker_cache = OrderedDict()


def worker_cached(ref, build=None):
    """``build(ray.get(ref))`` (or the fetched object itself), memoized
    per worker process keyed by the ObjectRef — the per-batch lookup
    state of a plain task is fetched and built once per worker, not
    once per batch, with no actor to start. A ref maps to ONE built
    value: callers pair each ``ray.put`` with a single ``build``. The
    cache is a small LRU so a cached zero-copy plasma view cannot pin
    more than a handful of broadcast objects in the store. When the
    package itself ships by value (``register_pickle_by_value``, the
    path-less driver contract) each task unpickles its own copy of
    this module's globals, so the cache then lives per task."""
    import ray

    key = ref.binary()
    # pop + reinsert moves a hit to the LRU end; each step is one
    # atomic dict operation, so a concurrent caller can at worst build
    # the value twice
    val = _worker_cache.pop(key, None)
    if val is None:
        val = ray.get(ref)
        if build is not None:
            val = build(val)
    _worker_cache[key] = val
    while len(_worker_cache) > _WORKER_CACHE_SIZE:
        _worker_cache.popitem(last=False)
    return val


def broadcast_join(left_ds, right_df, on, how="inner", suffix="_r"):
    """Small right side: ship once via ray.put, pandas-merge per batch
    in a plain task (the frame is fetched once per worker through
    :func:`worker_cached`). No shuffle and no actor pool
    (ray_guide.md 'Joins and lookups')."""
    import ray

    ref = ray.put(right_df)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(
            worker_cached(ref), on=on, how=how, suffixes=("", suffix)
        )

    return left_ds.map_batches(merge, batch_format="pandas", batch_size=65536)


def _cap_join_partitions(num_partitions):
    """Ray 2.49's hash-shuffle Join spawns ``num_partitions``
    HashShuffleAggregator actors; when that far exceeds cluster CPUs
    the actors starve the upstream map tasks and the executor
    deadlocks (reproduced: 32 partitions hang a 4-CPU cluster, 8 run
    fine — the same starvation class as the r2 pyramid actor-pool
    fix). Cap at the cluster CPU count."""
    import ray

    ncpu = int(ray.cluster_resources().get("CPU", num_partitions))
    return max(2, min(int(num_partitions), ncpu))


def drop_empty_blocks(ds, normalize=False):
    """Rebuild a dataset without its zero-row blocks (metadata-only —
    no block data touches the driver). Feed join inputs through this:
    Ray 2.49's hash-shuffle join broadcasts each side's schema with the
    FIRST block it submits, but `_shuffle_block` short-circuits on an
    empty block (hash_shuffle.py:224) AFTER the submit loop marked the
    schema as sent — so a leading empty block permanently starves
    schema-less partitions and acero raises ``No match ... for key
    field reference`` at finalize (reproduced on a 1-edge graph).
    Materializes ``ds`` if it isn't already; all-empty inputs are
    returned as-is (nothing to join anyway). Blocks must be Arrow
    (true for every join call site here — inputs are normalized via
    ``map_batches(..., batch_format="pyarrow")``); pass
    ``normalize=True`` when block types are unknown (e.g. pandas
    map_groups output) — adds one arrow-normalizing pass first."""
    import ray
    import ray.data as rd

    if normalize:
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    mat = ds.materialize()
    refs, dropped = [], 0
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
            else:
                dropped += 1
    if not refs or not dropped:
        return mat
    return rd.from_arrow_refs(refs)


def join_partitions_for(n_rows, rows_per_partition=500_000, floor=4):
    """Partition count for a hash join sized to the DATA, not the
    cluster: ~``rows_per_partition`` joined rows per reduce partition
    keeps each reduce task's memory bounded; the floor keeps tiny
    joins parallel; :func:`_cap_join_partitions` bounds the result at
    cluster CPUs (the deadlock cap). Hash-shuffle actor startup costs
    ~0.1–0.15 s PER PARTITION on Ray 2.49 (measured: the same
    600k×150k join runs 5.7 s at 32 partitions, 2.6 s at 4 — identical
    output), so oversizing partitions at small inputs bills pure
    fixed cost; at the 100 TB target the CPU cap dominates and
    partition count tracks the cluster. ``n_rows`` is the estimated
    TOTAL rows entering the join (both sides; a pre-filter upper
    bound from parquet metadata via :func:`table_rows` is fine)."""
    return _cap_join_partitions(max(floor, int(n_rows // rows_per_partition)))


def hash_join(
    left_ds, right_ds, on, right_on=None, how="inner", num_partitions=32
):
    """Both sides large: Ray's native hash-partitioned join (shuffles
    both sides on the key). ``num_partitions`` is the explicit
    partitioning decision — size it to cluster CPUs (capped there
    automatically; see _cap_join_partitions)."""
    num_partitions = _cap_join_partitions(num_partitions)
    on_t = (on,) if isinstance(on, str) else tuple(on)
    r_t = None
    if right_on is not None:
        r_t = (right_on,) if isinstance(right_on, str) else tuple(right_on)
    return left_ds.join(
        right_ds,
        join_type=how,
        num_partitions=num_partitions,
        on=on_t,
        right_on=r_t,
    )


def bucket_join(left_ds, right_ds, on, *, n_buckets=32, how="inner"):
    """Portable explicit partitioned hash join (the ray_guide.md
    pattern, kept as the fallback for Ray versions without
    ``Dataset.join``): add ``bucket = hash(key) % B`` to both sides,
    tag, pad to a shared schema, union, group by bucket, pandas-merge
    inside each group. Requires the two sides' non-key column names to
    be disjoint (true for TPC-H-style schemas)."""
    key = on if isinstance(on, str) else on[0]
    lcols = list(left_ds.schema().names)
    rcols = list(right_ds.schema().names)
    shared = [c for c in lcols if c in rcols]
    assert shared == ([on] if isinstance(on, str) else list(on)), (
        f"bucket_join needs disjoint non-key columns, shared={shared}"
    )
    all_cols = lcols + [c for c in rcols if c not in lcols]

    def tag(side, have):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            k = batch[key].to_numpy()
            if np.issubdtype(k.dtype, np.integer):
                bucket = np.abs(k.astype(np.int64)) % n_buckets
            else:  # strings / other: deterministic value hash
                bucket = (pd.util.hash_array(k) % n_buckets).astype(np.int64)
            batch = batch.copy()
            for c in all_cols:
                if c not in have:
                    batch[c] = None
            batch = batch[all_cols]
            batch["__bucket"] = bucket
            batch["__side"] = side
            return batch

        return fn

    lt = left_ds.map_batches(tag(0, lcols), batch_format="pandas")
    rt = right_ds.map_batches(tag(1, rcols), batch_format="pandas")

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group["__side"] == 0][lcols]
        right = group[group["__side"] == 1][rcols]
        out = left.merge(right, on=on, how=how, suffixes=("", "_r"))
        return out

    return lt.union(rt).groupby("__bucket").map_groups(
        join_bucket, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# pre-aggregated groupby (partial combine before the shuffle)
# ---------------------------------------------------------------------------


def preagg_sum_count(ds, keys, sum_cols, count_alias="n"):
    """Per-batch partial sums/counts → small groupby → final sums.
    Returns a Dataset with columns keys + sum_cols + count_alias.
    The shuffle moves one row per (batch, key-combo), not per input
    row (ray_guide.md 'Aggregation at scale'). NOTE: the final merge
    is Ray's per-key grouped Sum — fine to ~10⁴ distinct keys, but it
    degrades super-linearly beyond that (measured 83 s+ at 10⁶
    groups; see dedup.exact_dedup) — above that, use the coarse-bucket
    map_groups pattern (dedup._coarse_bucket) for the final merge."""
    from ray.data.aggregate import Sum

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(list(keys), as_index=False, sort=False).agg(
            **{c: (c, "sum") for c in sum_cols},
            **{count_alias: (keys[0], "size")},
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    aggs = [Sum(c, alias_name=c) for c in sum_cols] + [
        Sum(count_alias, alias_name=count_alias)
    ]
    return partials.groupby(list(keys)).aggregate(*aggs)


def preagg_sum_count_df(ds, keys, sum_cols, count_alias="n"):
    """Like :func:`preagg_sum_count` but the FINAL merge runs driver-
    side in pandas. The shuffle-avoidance logic is identical (per-batch
    partials); the final set is one row per (block, key) — small
    whenever the key cardinality is moderate, and merging it in one
    vectorized pandas groupby avoids Ray's per-group overhead on
    high-cardinality keys (30k groups ≈ 30s via grouped aggregate,
    <0.1s here). For truly huge key spaces use preagg_sum_count."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(list(keys), as_index=False, sort=False).agg(
            **{c: (c, "sum") for c in sum_cols},
            **{count_alias: (keys[0], "size")},
        )

    partials = ds.map_batches(
        partial, batch_format="pandas", batch_size=65536
    ).to_pandas()
    if partials.empty:  # an all-empty Dataset yields a SCHEMA-LESS
        # frame (no columns at all) — rebuild the typed empty result
        return pd.DataFrame(
            {
                **{k: pd.Series(dtype=object) for k in keys},
                **{c: pd.Series(dtype="float64") for c in sum_cols},
                count_alias: pd.Series(dtype="int64"),
            }
        )
    return partials.groupby(list(keys), as_index=False, sort=False).agg(
        **{c: (c, "sum") for c in sum_cols},
        **{count_alias: (count_alias, "sum")},
    )


def _bucket_rows(df, keys, n_buckets, out_col="__ub"):
    """Multi-key coarse-bucket key: one deterministic row hash over the
    key columns jointly (``dedup._coarse_bucket`` hashes a single
    column; low-cardinality FIRST keys like p_brand would starve the
    buckets). Mutates ``df`` — callers copy when the frame is shared."""
    h = pd.util.hash_pandas_object(df[list(keys)], index=False).to_numpy()
    df[out_col] = (h % n_buckets).astype("int64")
    return df


def grouped_sum_cb(ds, keys, sum_cols, count_alias=None, batch_size=65536):
    """Grouped sum at ARBITRARY key cardinality (part/supplier keys are
    SF-proportional — 10⁹ groups at the 100 TB target): per-batch
    partial sums shrink each batch to one row per in-batch key combo,
    then ONE coarse-bucket shuffle with a vectorized pandas fold per
    bucket. Never Ray's per-key grouped aggregate (super-linear beyond
    ~10⁴ groups, measured in dedup.exact_dedup) and never a driver-side
    merge (preagg_sum_count_df's bound). Returns a Dataset with columns
    keys + sum_cols (+ count_alias), still distributed."""
    from .dedup import _adaptive_coarse

    keys = list(keys)
    vals = list(sum_cols) + ([count_alias] if count_alias else [])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:  # typed empty: object-dtype columns from a
            # schema-less empty frame break Arrow unification
            out = batch[keys + list(sum_cols)].iloc[:0].copy()
            if count_alias:
                out[count_alias] = pd.Series(dtype="int64")
            return out
        agg = {c: (c, "sum") for c in sum_cols}
        if count_alias:
            agg[count_alias] = (keys[0], "size")
        return batch.groupby(keys, as_index=False, sort=False).agg(**agg)

    partials = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).materialize()  # consumed by count() + the bucketed fold
    n_cb = _adaptive_coarse(partials.count(), per_group_target=200_000)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False, sort=False)[vals].sum()

    return (
        partials.map_batches(
            lambda b, _n=n_cb: _bucket_rows(b.copy(), keys, _n),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(fold, batch_format="pandas")
    )


def grouped_min_cb(ds, keys, min_cols, batch_size=65536):
    """Grouped MIN at ARBITRARY key cardinality — the same two-level
    shape as :func:`grouped_sum_cb` (min is associative/commutative, so
    a min of per-batch partial mins is exact): per-batch pandas
    ``groupby(...).min()`` shrinks each batch to one row per in-batch
    key combo, then ONE coarse-bucket shuffle folds the partials.
    Returns a Dataset with columns keys + min_cols, still
    distributed. Feeds argmin join-backs (Q2 shape)."""
    from .dedup import _adaptive_coarse

    keys = list(keys)
    cols = list(min_cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:  # typed empty (see grouped_sum_cb)
            return batch[keys + cols].iloc[:0].copy()
        return batch.groupby(keys, as_index=False, sort=False)[cols].min()

    partials = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).materialize()  # consumed by count() + the bucketed fold
    n_cb = _adaptive_coarse(partials.count(), per_group_target=200_000)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False, sort=False)[cols].min()

    return (
        partials.map_batches(
            lambda b, _n=n_cb: _bucket_rows(b.copy(), keys, _n),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(fold, batch_format="pandas")
    )


def distinct_cb(ds, cols, batch_size=65536):
    """DISTINCT over arbitrary-cardinality column combos: per-batch
    drop_duplicates → coarse-bucket shuffle on the joint row hash →
    per-bucket drop_duplicates. Same scale rationale as
    :func:`grouped_sum_cb` (``ds.unique`` / per-key groupby degrade on
    high-cardinality keys). Returns a Dataset of the distinct rows."""
    from .dedup import _adaptive_coarse

    cols = list(cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b[cols].drop_duplicates()

    partials = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).materialize()  # consumed by count() + the bucketed distinct
    n_cb = _adaptive_coarse(partials.count(), per_group_target=200_000)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g[cols].drop_duplicates()

    return (
        partials.map_batches(
            lambda b, _n=n_cb: _bucket_rows(b.copy(), cols, _n),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(fold, batch_format="pandas")
    )


def with_row_rank(ds, sort_cols, rank_col="row_rank", descending=False):
    """Global ROW_NUMBER() OVER (ORDER BY sort_cols): the one window
    shape Ray Data's API can't express (every row needs its exact
    position in the TOTAL order, not a per-group or per-batch one).

    Plan: one range-partitioned ``sort`` (the unavoidable all-to-all —
    exact ranks require a total order), then ranks are assigned with
    ZERO extra data movement: the sorted blocks' row counts are read
    from driver-side metadata only (no block data touches the driver),
    prefix-summed into per-block start offsets, and one raw Ray task
    per block appends ``offset + arange(n)``. Raw tasks (not
    map_batches) because the rank of a block depends on its POSITION
    in the sorted block sequence — per-batch transforms are
    deliberately position-blind. Output rebuilds as a Dataset via
    ``from_arrow_refs`` (blocks stay in the object store).

    Ranks are 0-based and dense; ties broken by making ``sort_cols``
    unique (append a key column), exactly like SQL ROW_NUMBER with a
    deterministic ORDER BY."""
    import ray
    import ray.data as rd

    if isinstance(sort_cols, str):
        sort_cols = [sort_cols]
    mat = ds.sort(sort_cols, descending=descending).materialize()
    blocks = [
        (ref, meta.num_rows)
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
    ]

    @ray.remote
    def _stamp(block, offset, col):
        import numpy as _np
        import pyarrow as _pa

        if not isinstance(block, _pa.Table):  # pandas block (e.g.
            block = _pa.Table.from_pandas(  # from_pandas input)
                block, preserve_index=False
            )
        return block.append_column(
            col, _pa.array(_np.arange(offset, offset + block.num_rows))
        )

    refs, off = [], 0
    for ref, n in blocks:
        if not n:
            continue
        refs.append(_stamp.remote(ref, off, rank_col))
        off += n
    if not refs:
        return mat
    return rd.from_arrow_refs(refs)


def with_running_sum(ds, sort_cols, val_col, out_col="running_sum"):
    """Global EXCLUSIVE running sum — ``SUM(val) OVER (ORDER BY
    sort_cols ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`` —
    the substrate for GPT-style sequence packing (each doc's start
    offset in the concatenated token stream). Same plan as
    :func:`with_row_rank`: one range-partitioned sort (exact global
    offsets require a total order), then offsets are assigned with no
    further data movement. Unlike row ranks, per-block offsets need
    each block's SUM, not just its row count, so one tiny raw task per
    block first returns its scalar sum (the driver folds O(blocks)
    scalars), and a second task per block stamps
    ``offset + exclusive_cumsum(val)``. Values must be integer-typed —
    int64 partial sums are exact under any block split."""
    import ray
    import ray.data as rd

    if isinstance(sort_cols, str):
        sort_cols = [sort_cols]
    mat = ds.sort(sort_cols).materialize()
    blocks = [
        (ref, meta.num_rows)
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
    ]

    @ray.remote
    def _block_sum(block, col):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        if not isinstance(block, _pa.Table):
            block = _pa.Table.from_pandas(block, preserve_index=False)
        if block.num_rows == 0:
            return 0
        return _pc.sum(block.column(col)).as_py() or 0

    @ray.remote
    def _stamp(block, offset, col, out):
        import numpy as _np
        import pyarrow as _pa

        if not isinstance(block, _pa.Table):
            block = _pa.Table.from_pandas(block, preserve_index=False)
        v = block.column(col).to_numpy(zero_copy_only=False).astype(_np.int64)
        excl = _np.concatenate(([0], _np.cumsum(v)[:-1])) + offset
        return block.append_column(out, _pa.array(excl))

    live = [(ref, n) for ref, n in blocks if n]
    sums = ray.get([_block_sum.remote(ref, val_col) for ref, _ in live])
    refs, off = [], 0
    for (ref, _), s in zip(live, sums):
        refs.append(_stamp.remote(ref, off, val_col, out_col))
        off += int(s)
    if not refs:
        return mat
    return rd.from_arrow_refs(refs)


def topk(ds, by, k, descending=True, tie_col=None):
    """Global top-k: per-block partial top-k then a final sort+limit
    (the partial pass bounds what the sort shuffles)."""
    cols = [by] + ([tie_col] if tie_col else [])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            cols, ascending=[not descending] + [True] * (len(cols) - 1)
        ).head(k)

    pruned = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    out = pruned.sort(cols, descending=[descending] + [False] * (len(cols) - 1))
    return out.limit(k)


def grouped_topk(ds, group_col, by, k, descending=True, tie_col=None):
    """Per-GROUP top-k with a combiner: each batch first keeps at most
    k rows per group (vectorized sort + groupby head — no Python loop),
    so the grouped merge only shuffles ≤ k × n_groups × n_blocks rows;
    the full table is never globally sorted. The merge is a
    coarse-bucketed map_groups (each group lands wholly in one bucket;
    the inner sort + head-k is vectorized ACROSS groups), so group
    count can be huge (per-user top-k) without the super-linear cost
    of Ray 2.49's per-key grouped apply (~83 s at 10⁶ groups — see
    dedup.exact_dedup). Adds a 1-based ``rk`` rank column per group.
    Deterministic via ``tie_col``."""
    from .dedup import _adaptive_coarse, _coarse_bucket

    cols = [by] + ([tie_col] if tie_col else [])
    asc = [not descending] + [True] * (len(cols) - 1)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch.sort_values(cols, ascending=asc)
        return s.groupby(group_col, sort=False).head(k)

    pruned = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    # pin the (shrunk) partial before the grouped merge — Ray 2.49
    # chained-all-to-all pathology (see dedup.exact_dedup)
    pruned = pruned.materialize()
    n_cb = _adaptive_coarse(pruned.count(), per_group_target=200_000)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values([group_col] + cols, ascending=[True] + asc)
        s = s.groupby(group_col, sort=False).head(k).copy()
        s["rk"] = (
            s.groupby(group_col, sort=False).cumcount().to_numpy() + 1
        ).astype(np.int64)
        return s.drop(columns=["__ub"])

    return (
        pruned.map_batches(
            lambda b, _n=n_cb: _coarse_bucket(b.copy(), group_col, _n),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(final, batch_format="pandas")
    )


def heavy_hitters(
    ds, col, k=10, capacity=4096, batch_size=65536, return_certified=False
):
    """Exact top-k most frequent values via a mergeable Misra-Gries
    sketch with an exact-verify pass (certified-or-fallback).

    Pass 1: each batch reduces to its value counts, locally cut to
    ``capacity`` entries the MG way (subtract the (capacity+1)-th
    count ``cut_b``, drop non-positives). The driver merges
    ≤ (capacity+1) × batches partial rows — bounded regardless of key
    cardinality — and applies one final MG cut. The undercount of ANY
    value (hence the true count of any value absent from the sketch)
    is bounded by BOTH of (a) ``Σ cut_b + cut_final`` — a value loses
    at most ``cut`` per cut it passes through (kept: count − cut;
    dropped: its count was ≤ cut) — and (b) the mergeable-summaries
    bound ``(n − S) / (capacity + 1)`` with S the mass retained in the
    final sketch (Agarwal et al., TODS'13: MG summaries merge with
    this error under any merge tree). (a) wins at few batches, (b) at
    web scale where cuts are many but each tiny; ``delta`` is their
    min.
    Pass 2: broadcast the ≤ capacity candidates, exact-count them with
    a filtered per-batch partial + tiny driver merge.
    If the k-th exact candidate count is > delta, no non-candidate can
    reach the top k, so the result is PROVABLY exact. Otherwise the
    data was not skewed enough for this capacity and we fall back to
    the exact full pre-aggregation (O(distinct × blocks) driver merge
    — the documented cost, correctness never depends on skew).
    Returns (col, cnt) sorted cnt desc then col asc; with
    ``return_certified`` also returns whether the sketch certified."""
    import ray

    sentinel_col, cnt_col = "__hh_key", "__hh_cnt"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch[col].value_counts()
        keys = vc.index.to_numpy()
        cnts = vc.to_numpy().astype("int64")
        cut = 0
        if len(keys) > capacity:
            cut = int(cnts[capacity])  # counts sorted desc by value_counts
            kept = cnts[:capacity] - cut
            pos = kept > 0
            if pos.any():
                keys, cnts = keys[:capacity][pos], kept[pos]
            else:
                # uniform batch: keep the top key at count 0 so the
                # cut has a row to ride on (harmless extra candidate)
                keys, cnts = keys[:1], np.zeros(1, dtype=np.int64)
        out = pd.DataFrame({sentinel_col: keys, cnt_col: cnts})
        # per-batch cut + row count on the first row (key dtype stays pure)
        d = np.zeros(len(out), dtype=np.int64)
        d[0] = cut
        out["__hh_cut"] = d
        d2 = np.zeros(len(out), dtype=np.int64)
        d2[0] = len(batch)
        out["__hh_n"] = d2
        return out

    sk = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).to_pandas()
    sum_cuts = int(sk["__hh_cut"].sum())
    n_total = int(sk["__hh_n"].sum())
    merged = sk.groupby(sentinel_col, as_index=False, sort=False)[cnt_col].sum()
    merged = merged.sort_values(cnt_col, ascending=False)
    if len(merged) > capacity:
        cut = int(merged[cnt_col].iloc[capacity])
        merged = merged.head(capacity).copy()
        merged[cnt_col] -= cut
        merged = merged[merged[cnt_col] > 0]
        sum_cuts += cut
    stored = int(merged[cnt_col].sum())
    delta = min(sum_cuts, (n_total - stored) // (capacity + 1))
    candidates = merged[sentinel_col].to_numpy()

    # pass 2: exact counts of the candidate set only
    cand_ref = ray.put(set(candidates.tolist()))

    def exact_count(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch[col].isin(worker_cached(cand_ref))]
        vc = b[col].value_counts()
        return pd.DataFrame(
            {col: vc.index.to_numpy(), "cnt": vc.to_numpy().astype("int64")}
        )

    exact = (
        ds.map_batches(exact_count, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby(col, as_index=False, sort=False)["cnt"]
        .sum()
    )
    exact = exact.sort_values(["cnt", col], ascending=[False, True]).head(k)
    certified = len(exact) >= k and int(exact["cnt"].iloc[-1]) > delta
    if not certified:
        # not enough skew for this capacity — exact full aggregation
        full = preagg_sum_count_df(ds, [col], [], count_alias="cnt")
        exact = full.sort_values(["cnt", col], ascending=[False, True]).head(k)
    out = exact.reset_index(drop=True)
    out["cnt"] = out["cnt"].astype("int64")
    return (out, certified) if return_certified else out


def _hibit(w):
    """Exact index of the highest set bit for each uint64 in ``w``
    (entries must be > 0). Binary-search shift cascade — 6 vectorized
    numpy passes, no float log2 (float64 rounds 2⁶³−1 up to 2⁶³ and
    mis-ranks ~1/2¹¹ of hashes near power-of-two boundaries)."""
    w = w.astype(np.uint64, copy=True)
    r = np.zeros(w.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = w >= (np.uint64(1) << np.uint64(s))
        r[m] += s
        w[m] >>= np.uint64(s)
    return r


def _hll_batch_registers(values, p):
    """Dense HLL register array (uint8[2^p]) for one batch of values.
    Hash: pandas' 64-bit SipHash-ish ``hash_array`` (fixed internal
    key — deterministic across processes/machines, unlike Python's
    seeded ``hash``). Register index = top ``p`` hash bits; rank =
    1-based position of the first set bit in the remaining 64−p."""
    h = pd.util.hash_array(np.asarray(values))  # uint64
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)).astype(np.uint64)  # low bits shifted up
    rank = np.where(rest == 0, 64 - p + 1, 64 - _hibit(np.maximum(rest, 1)))
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def _hll_estimate(regs):
    """Flajolet et al. '07 estimator with the standard small-range
    (linear-counting) and large-range corrections."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)  # linear counting
    elif e > (1 << 64) / 30.0:
        e = -(2.0**64) * np.log1p(-e / 2.0**64)
    return int(round(e))


def hll_distinct(ds, col, p=14, group_col=None, batch_size=65536):
    """Approximate COUNT(DISTINCT col) via a mergeable HyperLogLog
    sketch (rel. error ≈ 1.04/√2^p ≈ 0.8% at the default p=14).

    Shape for 100 TB: each batch reduces to ONE dense 2^p-byte
    register row (16 KiB at p=14) — the only thing that ever leaves a
    worker; registers merge by elementwise max, which is associative
    and commutative, so any merge tree gives the identical sketch.
    Ungrouped: the driver folds batch sketches as they stream
    (``iter_batches`` — O(2^p) driver memory, never O(batches)).
    Grouped: partial rows are (group, registers) and the max-merge
    runs as a distributed Ray groupby/map_groups, so group cardinality
    can be large; per-group answer rows are all that reach the driver.

    Returns an int estimate, or a DataFrame (group_col, approx_distinct)
    sorted by group when ``group_col`` is given."""
    m = 1 << p

    if group_col is None:

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            regs = _hll_batch_registers(batch[col].to_numpy(), p)
            return pd.DataFrame({"regs": [regs.tobytes()]})

        sketches = ds.map_batches(
            partial, batch_format="pandas", batch_size=batch_size
        )
        regs = np.zeros(m, dtype=np.uint8)
        for b in sketches.iter_batches(batch_format="pandas"):
            for blob in b["regs"]:
                np.maximum(
                    regs, np.frombuffer(blob, dtype=np.uint8), out=regs
                )
        return _hll_estimate(regs)

    def partial_g(batch: pd.DataFrame) -> pd.DataFrame:
        rows_g, rows_r = [], []
        for gval, sub in batch.groupby(group_col, sort=False):
            rows_g.append(gval)
            rows_r.append(
                _hll_batch_registers(sub[col].to_numpy(), p).tobytes()
            )
        if not rows_g:  # typed empty (object-dtype [] breaks Arrow schema
            # unification against non-empty blocks; same guard as
            # grouped_quantile_sketch.partial)
            return pd.DataFrame(
                {
                    group_col: batch[group_col].iloc[:0],
                    "regs": pd.array([b""], dtype=object)[:0],
                }
            )
        return pd.DataFrame({group_col: rows_g, "regs": rows_r})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(m, dtype=np.uint8)
        for blob in g["regs"]:
            np.maximum(regs, np.frombuffer(blob, dtype=np.uint8), out=regs)
        return pd.DataFrame(
            {
                group_col: [g[group_col].iloc[0]],
                "approx_distinct": np.array(
                    [_hll_estimate(regs)], dtype=np.int64
                ),
            }
        )

    out = (
        ds.map_batches(partial_g, batch_format="pandas", batch_size=batch_size)
        .materialize()  # pin partials before the all-to-all (see exact_dedup)
        .groupby(group_col)
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(group_col).reset_index(drop=True)


def quantile_sketch(ds, col, qs=(0.25, 0.5, 0.75), B=4096, batch_size=65536):
    """Approximate quantiles via a mergeable equal-spaced weighted
    summary (the MRL-style collapse, Manku et al. SIGMOD'98 shape).

    Shape for 100 TB: each batch reduces to ≤ ``B`` (value, weight)
    rows — a rank-uniform thinning of the sorted batch (per-batch rank
    error ≤ n_batch/2B). Summaries stream to a driver fold that holds
    at most 16·B points and re-thins when full, so driver memory is
    O(B) regardless of row count; on a multi-node run the same fold is
    associative and would tree-reduce. Rank error grows with collapse
    depth — measured ≤ 0.024% absolute rank at 10⁷ lognormal rows /
    B=4096, 1.7 s at 32 cpus (BASELINE.md datapoint table); raise
    ``B`` for tighter error.
    Returns np.float64 estimates aligned with ``qs``."""
    B = int(B)

    def thin(v, w, k):
        """Rank-uniform k-point summary of weighted values (sorted)."""
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        total = float(w.sum())
        cw = np.cumsum(w) - 0.5 * w  # midpoint ranks
        targets = (np.arange(k) + 0.5) * (total / k)
        idx = np.clip(np.searchsorted(cw, targets), 0, len(v) - 1)
        return v[idx], np.full(k, total / k)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v, w = _thin_sorted_values(batch[col].to_numpy(), B)
        return pd.DataFrame({"qv": v, "qw": w})

    summaries = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    )
    vals = np.empty(0, dtype=np.float64)
    wts = np.empty(0, dtype=np.float64)
    for b in summaries.iter_batches(batch_format="pandas"):
        vals = np.concatenate([vals, b["qv"].to_numpy()])
        wts = np.concatenate([wts, b["qw"].to_numpy()])
        if len(vals) > 16 * B:
            vals, wts = thin(vals, wts, B)
    if len(vals) == 0:  # empty input: quantiles undefined, not a crash
        return np.full(len(np.atleast_1d(qs)), np.nan)
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    total = float(wts.sum())
    cw = np.cumsum(wts) - 0.5 * wts
    return np.interp(np.asarray(qs, dtype=np.float64) * total, cw, vals)


def _thin_sorted_values(raw, B):
    """Sort a raw value array and thin it to ≤ B rank-uniform
    (value, weight) points — the shared per-batch summary step of
    both quantile-sketch paths (the +0.5 rank offset must stay
    identical between them)."""
    v = np.sort(np.asarray(raw, dtype=np.float64))
    if len(v) > B:
        idx = ((np.arange(B) + 0.5) * (len(v) / B)).astype(np.int64)
        return v[idx], np.full(B, len(v) / B)
    return v, np.ones(len(v))


def grouped_quantile_sketch(
    ds, col, group_col, qs=(0.25, 0.5, 0.75), B=1024, batch_size=65536
):
    """Per-GROUP approximate quantiles with the same mergeable summary
    as :func:`quantile_sketch`: each batch thins every group it holds
    to ≤ ``B`` (value, weight) rows, so only B × groups × blocks
    summary rows shuffle, and the grouped merge runs as a
    coarse-bucketed map_groups (group cardinality can be large —
    per-group answers are all that reach the driver, and the per-key
    Ray aggregate's super-linear group cost is avoided; see
    dedup.exact_dedup). Returns a DataFrame
    (group_col, q25.., sorted by group) with one column per requested
    quantile, named ``p{int(100q)}``."""
    B = int(B)
    qarr = np.asarray(qs, dtype=np.float64)
    names = [f"p{int(round(q * 100)):02d}" for q in qarr]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        gs, vs, ws = [], [], []
        for gval, sub in batch.groupby(group_col, sort=False):
            v, w = _thin_sorted_values(sub[col].to_numpy(), B)
            gs.append(np.repeat(gval, len(v)))
            vs.append(v)
            ws.append(w)
        if not gs:  # typed empty (object-dtype [] breaks Arrow schema
            # unification against non-empty blocks at the shuffle)
            return pd.DataFrame(
                {
                    group_col: batch[group_col].iloc[:0],
                    "qv": np.array([], dtype=np.float64),
                    "qw": np.array([], dtype=np.float64),
                }
            )
        return pd.DataFrame(
            {
                group_col: np.concatenate(gs),
                "qv": np.concatenate(vs),
                "qw": np.concatenate(ws),
            }
        )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for gval, sub in g.groupby(group_col, sort=False):
            v = sub["qv"].to_numpy()
            w = sub["qw"].to_numpy()
            order = np.argsort(v, kind="stable")
            v, w = v[order], w[order]
            cw = np.cumsum(w) - 0.5 * w
            est = np.interp(qarr * float(w.sum()), cw, v)
            rows.append((gval, *est))
        return pd.DataFrame(rows, columns=[group_col] + names)

    from .dedup import _adaptive_coarse, _coarse_bucket

    partials = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).materialize()  # pin partials before the all-to-all (see exact_dedup)
    n_cb = _adaptive_coarse(partials.count(), per_group_target=200_000)
    out = (
        partials.map_batches(
            lambda b, _n=n_cb: _coarse_bucket(b, group_col, _n),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(group_col).reset_index(drop=True)


def grouped_variance(ds, keys, col, batch_size=65536):
    """Numerically-stable grouped mean/variance via mergeable Welford
    partials: each batch reduces to one (keys, n, mean, M2) row per
    group — the only thing that shuffles — and partials merge with the
    parallel-variance combine (Chan et al. 1979; the k-way form
    M2 = Σ M2ᵢ + Σ nᵢ·(mᵢ − m̄)² is algebraically identical to the
    pairwise fold and has no sum-of-squares cancellation at huge n).
    The merge runs DISTRIBUTED through the coarse-bucket pattern
    (each key lands wholly in one bucket; the combine is vectorized
    pandas ACROSS keys inside each bucket — no per-group Python fold
    and no driver structure proportional to key cardinality). Returns
    a DataFrame (keys..., n, mean, var_pop) sorted by keys."""
    from .dedup import _adaptive_coarse, _coarse_bucket

    keys = list(keys)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(keys, sort=False)[col]
        agg = g.agg(["count", "mean", "var"]).reset_index()
        if len(agg) == 0:  # typed empty (Arrow schema unification)
            out = b[keys].iloc[:0].copy()
            for c in ("n", "m", "m2"):
                out[c] = np.array([], dtype=np.float64)
            return out
        n = agg["count"].to_numpy(dtype=np.float64)
        # pandas var is ddof=1 (NaN at n=1) → M2 = var*(n-1)
        m2 = np.where(n > 1, agg["var"].to_numpy() * (n - 1.0), 0.0)
        agg["n"] = n
        agg["m"] = agg["mean"]
        agg["m2"] = m2
        return agg[keys + ["n", "m", "m2"]]

    parts = ds.map_batches(
        partial, batch_format="pandas", batch_size=batch_size
    ).materialize()  # pin partials before the all-to-all (see exact_dedup)
    n_cb = _adaptive_coarse(parts.count(), per_group_target=200_000)

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        if len(keys) == 1:
            return _coarse_bucket(b, keys[0], n_cb)
        h = pd.util.hash_array(b[keys[0]].to_numpy())
        for k in keys[1:]:  # composite key: xor of per-column hashes
            h = h ^ pd.util.hash_array(b[k].to_numpy())
        b["__ub"] = (h % n_cb).astype("int64")
        return b

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["n"] > 0]
        if len(g) == 0:
            out = g[keys].copy()
            for c, dt in (("n", "int64"), ("mean", "float64"),
                          ("var_pop", "float64")):
                out[c] = pd.array([], dtype=dt)
            return out
        g = g.copy()
        g["nm"] = g["n"] * g["m"]
        tot = g.groupby(keys, sort=False).agg(
            n=("n", "sum"), nm=("nm", "sum")
        )
        tot["mean"] = tot["nm"] / tot["n"]
        j = g.merge(tot[["mean"]], left_on=keys, right_index=True)
        dev = j["m"] - j["mean"]
        j["contrib"] = j["m2"] + j["n"] * dev * dev
        m2 = j.groupby(keys, sort=False)["contrib"].sum()
        out = tot.join(m2.rename("m2")).reset_index()
        out["var_pop"] = out["m2"] / out["n"].clip(lower=1.0)
        out["n"] = out["n"].astype("int64")
        return out[keys + ["n", "mean", "var_pop"]]

    out = (
        parts.map_batches(bucket, batch_format="pandas")
        .groupby("__ub")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()  # ≤ one row per group
    )
    if len(out) == 0:  # empty input: empty typed result, not a crash
        out = out.reindex(columns=keys + ["n", "mean", "var_pop"])
        out["n"] = pd.array([], dtype="int64")
        out["mean"] = pd.array([], dtype="float64")
        out["var_pop"] = pd.array([], dtype="float64")
        return out[keys + ["n", "mean", "var_pop"]]
    return out.sort_values(keys).reset_index(drop=True)


def anti_join(
    left_ds,
    right_keys_ds,
    on,
    right_on=None,
    num_partitions=32,
    bloom=True,
    broadcast_limit=5_000_000,
    right_rows_bound=None,
):
    """LEFT ANTI join: rows of ``left_ds`` whose key has NO match in
    ``right_keys_ds``, with the same size guard as :func:`semi_join`.

    ≤ ``broadcast_limit`` right rows: the sorted distinct key array
    ships once via ray.put and each batch keeps the rows a vectorized
    searchsorted finds no match for — plain tasks, no exchange.
    ``right_rows_bound`` is an upper bound on the right side's rows
    the caller knows without executing it (:func:`table_rows` of the
    table the key slice is filtered from); when it fits the limit the
    count barrier is skipped and the key column is collected directly.

    Above the limit: Ray 2.49 has no native anti join type, so this is
    a partitioned left-outer join against the key set with a presence
    marker, followed by a null-marker filter — both sides shuffle once
    on the key; nothing is collected or broadcast, so the right side
    may be arbitrarily large. With ``bloom=True`` the left side is
    SPLIT by a Bloom test on the right key set first: a Bloom has no
    false negatives, so a non-hit row is GUARANTEED unmatched and goes
    straight to the output with no shuffle at all — only hits
    (matches + ~0.3% FPs) enter the join. The tagged left is
    materialized once (plasma, spillable) so the split does not
    re-read the input. Both paths return the same rows
    (test_anti_join_bloom_split_identity)."""
    right_on = right_on or on
    if right_rows_bound is not None and right_rows_bound <= broadcast_limit:
        return _broadcast_key_filter(
            left_ds, _collect_keys(right_keys_ds, right_on), on, anti=True
        )
    keys = right_keys_ds.select_columns([right_on]).materialize()
    n_keys = keys.count()
    if n_keys <= broadcast_limit:
        return _broadcast_key_filter(
            left_ds, _collect_keys(keys, right_on), on, anti=True
        )
    num_partitions = _cap_join_partitions(num_partitions)

    def mark(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[right_on]].drop_duplicates()
        out["__hit"] = np.int64(1)
        return out

    marked = keys.map_batches(mark, batch_format="pandas")
    passthrough = None
    if bloom:
        import ray

        bitmap, pow_ = build_bloom(keys, right_on, n_keys)
        bm_ref = ray.put(bitmap)

        def tag(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            if len(b):
                b["__bh"] = _bloom_test(
                    worker_cached(bm_ref),
                    _bloom_indices(b[on].to_numpy(), pow_),
                )
            else:
                b["__bh"] = np.array([], dtype=bool)
            return b

        tagged = left_ds.map_batches(
            tag, batch_format="pandas"
        ).materialize()  # one read; filtered twice below
        passthrough = tagged.map_batches(
            lambda b: b[~b["__bh"]].drop(columns="__bh"),
            batch_format="pandas",
        )
        hits = tagged.map_batches(
            lambda b: b[b["__bh"]].drop(columns="__bh"),
            batch_format="pandas",
        ).materialize()
        n_hits = hits.count()
        if n_hits == 0:  # nothing can match — the join would
            # see an all-empty left (schema-starvation hazard)
            return passthrough
        left_ds = drop_empty_blocks(hits, normalize=True)
        # both join-side counts are in hand here — size the shuffle to
        # the data (hash-shuffle actors bill ~0.1 s/partition fixed)
        num_partitions = join_partitions_for(n_hits + n_keys)
    j = left_ds.join(
        marked,
        "left_outer",
        num_partitions,
        on=(on,),
        right_on=(right_on,),
    )
    drop = ["__hit"] + ([right_on] if right_on != on else [])

    def keep_missing(t: pa.Table) -> pa.Table:
        # Arrow, not pandas: an all-matched batch as an empty pandas
        # frame has object-dtype string columns, on which Ray's block
        # size estimate logs "cannot call `vectorize` on size 0 inputs"
        t = t.filter(pc.is_null(t["__hit"]))
        return t.drop_columns([c for c in drop if c in t.column_names])

    out = j.map_batches(keep_missing, batch_format="pyarrow")
    if passthrough is not None:
        # normalize both branches to arrow before union (join output
        # schema ordering can differ from the passthrough's)
        cols = [c for c in left_ds.schema().names if c != "__bh"]

        def order(t):
            return t.select(cols)

        out = out.map_batches(order, batch_format="pyarrow").union(
            passthrough.map_batches(order, batch_format="pyarrow")
        )
    return out


# ---------------------------------------------------------------------------
# Bloom prefilter: cut the fact side BEFORE the join all-to-all
# ---------------------------------------------------------------------------

_BLOOM_K = 4  # probes per key; with 12 bits/key → FP rate ≈ 0.3%


def _bloom_pow(n_keys, bits_per_key=12, lo_pow=16, hi_pow=27):
    """Bitmap size (log2 bits) for ~n_keys: 12 bits/key keeps the FP
    rate ≈0.3% at k=4; floor 8 KiB, cap 16 MiB (the cap is what keeps
    the bitmap broadcastable where the raw key SET never would be —
    beyond ~10⁸ keys the FP rate degrades gracefully instead of the
    bitmap growing unboundedly)."""
    pow_ = math.ceil(math.log2(max(1, int(n_keys)) * bits_per_key))
    return min(hi_pow, max(lo_pow, pow_))


def _bloom_indices(vals, pow_):
    """(k, n) bit indices via Kirsch–Mitzenmacher double hashing:
    probe i = h1 + i·h2 mod 2^pow. h1 is one vectorized
    pd.util.hash_array pass; h2 is a splitmix64 finalizer of h1
    (hash_array's ``hash_key`` is IGNORED for numeric dtypes, so a
    second hash_array call would be correlated with the first — a
    measured 4.7% FP rate vs the ~0.3% design; the independent-bit
    finalizer restores it). h2 forced odd so probes cover all
    residues. NOTE both join sides must present the key in the SAME
    dtype: the underlying hash is dtype-sensitive (int64 42 ≠
    float64 42.0)."""
    vals = np.asarray(vals)
    h1 = pd.util.hash_array(vals)
    z = h1 + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h2 = (z ^ (z >> np.uint64(31))) | np.uint64(1)
    mask = np.uint64((1 << pow_) - 1)
    idx = np.empty((_BLOOM_K, len(vals)), dtype=np.uint64)
    for i in range(_BLOOM_K):
        idx[i] = (h1 + np.uint64(i) * h2) & mask
    return idx


def _bloom_set(bitmap, idx):
    np.bitwise_or.at(
        bitmap,
        (idx >> np.uint64(6)).astype(np.int64).ravel(),
        np.uint64(1) << (idx & np.uint64(63)).ravel(),
    )


def _bloom_test(bitmap, idx):
    ok = np.ones(idx.shape[1], dtype=bool)
    for i in range(idx.shape[0]):
        w = bitmap[(idx[i] >> np.uint64(6)).astype(np.int64)]
        ok &= ((w >> (idx[i] & np.uint64(63))) & np.uint64(1)) != 0
    return ok


def build_bloom(keys_ds, col, n_keys, bits_per_key=12):
    """Distributed Bloom build over a key Dataset: each batch reduces
    to ONE fixed-size bitmap row (uint64 words as bytes — the HLL
    register pattern), partial bitmaps OR-merge associatively. Above
    64 partials a coarse-bucketed grouped OR keeps the driver fold
    bounded (≤64 bitmaps) no matter how many blocks the key set spans;
    the bitmap itself is capped at 16 MiB (see _bloom_pow) so the
    RESULT is always broadcastable. Returns (bitmap, pow)."""
    pow_ = _bloom_pow(n_keys, bits_per_key)
    words = 1 << (pow_ - 6)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bm = np.zeros(words, dtype=np.uint64)
        if len(b):
            _bloom_set(bm, _bloom_indices(b[col].to_numpy(), pow_))
        return pd.DataFrame({"__w": [bm.tobytes()]})

    parts = keys_ds.map_batches(
        partial, batch_format="pandas", batch_size=262144
    ).materialize()  # counted, then folded (grouped or driver-side)
    if parts.count() > 64:

        def bucket(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__g"] = (
                pd.util.hash_array(b["__w"].to_numpy()) % 64
            ).astype("int64")
            return b

        def or_merge(g: pd.DataFrame) -> pd.DataFrame:
            bm = np.zeros(words, dtype=np.uint64)
            for blob in g["__w"]:
                np.bitwise_or(
                    bm, np.frombuffer(blob, dtype=np.uint64), out=bm
                )
            return pd.DataFrame({"__w": [bm.tobytes()]})

        parts = (
            parts.map_batches(bucket, batch_format="pandas")
            .groupby("__g")
            .map_groups(or_merge, batch_format="pandas")
        )
    bitmap = np.zeros(words, dtype=np.uint64)
    for b in parts.iter_batches(batch_format="pandas"):
        for blob in b["__w"]:
            np.bitwise_or(bitmap, np.frombuffer(blob, dtype=np.uint64), out=bitmap)
    return bitmap, pow_


def bloom_prefilter(left_ds, bitmap, pow_, on, batch_size=131072):
    """Filter ``left_ds`` to rows whose key MIGHT be in the Bloom
    bitmap (matches always survive; ~0.3% false positives pass through
    to the exact join downstream). The bitmap ships once via ray.put —
    a zero-copy plasma view per worker — so the prefilter costs one
    vectorized hash pass per batch and removes non-matching fact rows
    BEFORE the join's all-to-all exchange."""
    import ray

    ref = ray.put(bitmap)

    def pref(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        return b[
            _bloom_test(
                worker_cached(ref), _bloom_indices(b[on].to_numpy(), pow_)
            )
        ]

    return left_ds.map_batches(pref, batch_format="pandas", batch_size=batch_size)


def _empty_frame_like(schema):
    """Typed zero-row DataFrame from a Ray Dataset schema. Block-type
    agnostic: arrow-derived schemas carry pyarrow DataTypes, pandas-
    derived ones numpy dtypes / the ``object`` class — both map to a
    pandas dtype the downstream merge can key on."""
    cols = {}
    for name, t in zip(schema.names, schema.types):
        if isinstance(t, pa.DataType):
            try:
                dt = t.to_pandas_dtype()
            except NotImplementedError:
                dt = object
        else:
            dt = t if t is not None else object
        cols[name] = pd.Series(dtype=dt)
    return pd.DataFrame(cols)


def dim_join(
    left_ds,
    right_ds,
    on,
    right_on=None,
    how="inner",
    broadcast_limit=5_000_000,
    num_partitions=32,
    bloom=True,
    right_rows_bound=None,
):
    """Size-GUARDED dimension join: count the right side first, then
    either broadcast it (≤ ``broadcast_limit`` rows — ship once via
    ray.put, pandas-merge per batch, no shuffle) or fall back to the
    partitioned hash join (both sides shuffle once; nothing is ever
    collected). TPC-H ``customer``/``part`` scale with SF — at the
    10¹²-row target they are NOT broadcastable, so every
    fact ⋈ SF-proportional-dimension hop must route through this guard
    rather than an unconditional ``read_pandas`` + broadcast (the r3
    audit's 'unguarded driver-read' finding). ``nation``/``region``
    (bounded dims) may keep plain broadcast_join.

    On the hash path with ``how="inner"`` and ``bloom=True`` the fact
    side is Bloom-prefiltered before the all-to-all (build_bloom over
    the dim keys — bitmap capped at 16 MiB regardless of key count —
    then one vectorized hash pass per fact batch): fact rows without a
    dim partner never enter the shuffle; the ~0.3% false positives are
    dropped by the exact join. Outer joins skip it (non-matching rows
    must survive).

    ``right_on`` names the right side's key when it differs from the
    left's; the output carries left columns + right non-key columns
    under EITHER path (the right key column never survives). Returns a
    ``right_rows_bound`` is an optional UPPER BOUND on the right
    side's rows that the caller already knows WITHOUT executing it —
    typically :func:`table_rows` parquet metadata for the dim table a
    slice was filtered from. When the bound fits the broadcast limit
    the materialize+count barrier is skipped entirely (the collect is
    the single execution); the bound scales with SF, so at the 100 TB
    target it exceeds the limit and the guarded path engages as
    before.

    Dataset."""
    r_on = right_on or on
    if (
        right_rows_bound is not None
        and right_rows_bound <= broadcast_limit
    ):
        rdf = right_ds.to_pandas()  # ≤ bound ≤ broadcast_limit rows
        if rdf.shape[1] == 0:
            rdf = _empty_frame_like(right_ds.schema())
        if r_on != on:
            rdf = rdf.rename(columns={r_on: on})
        return broadcast_join(left_ds, rdf, on=on, how=how)
    right_ds = right_ds.materialize()  # counted, then collected OR joined
    n_right = right_ds.count()
    if n_right <= broadcast_limit:
        rdf = right_ds.to_pandas()  # bounded by broadcast_limit
        if rdf.shape[1] == 0:
            # an all-empty Dataset collects SCHEMA-LESS — rebuild the
            # typed empty frame from block metadata so the per-batch
            # merge still sees the key column (empty inner join, not
            # KeyError; a fully-filtered dim slice is a legal input)
            rdf = _empty_frame_like(right_ds.schema())
        if r_on != on:
            rdf = rdf.rename(columns={r_on: on})
        return broadcast_join(left_ds, rdf, on=on, how=how)
    if bloom and how == "inner":
        bitmap, pow_ = build_bloom(
            right_ds.select_columns([r_on]), r_on, n_right
        )
        left_ds = bloom_prefilter(left_ds, bitmap, pow_, on)
    joined = hash_join(
        left_ds,
        # dim sides may carry empty-schema sentinel blocks (map_groups
        # output) that starve the join's schema broadcast — see
        # drop_empty_blocks; normalize=True because block types here
        # are caller-dependent (pandas or arrow)
        drop_empty_blocks(right_ds, normalize=True),
        on=on,
        right_on=r_on if r_on != on else None,
        how=how,
        num_partitions=num_partitions,
    )
    if r_on != on:
        joined = _drop_if_present(joined, [r_on])
    return joined


def _drop_if_present(ds, cols):
    """Drop columns when they exist — Ray's native join may or may not
    emit the right-side key column depending on version/name collision,
    so a hard drop_columns would KeyError on the absent case."""
    def fn(t):
        keep = [c for c in t.column_names if c not in cols]
        return t.select(keep)

    return ds.map_batches(fn, batch_format="pyarrow")


def _collect_keys(keys_ds, col):
    """The key column of a (size-guarded) Dataset as a numpy array. An
    all-empty Dataset collects schema-less — that is an empty key set."""
    df = keys_ds.select_columns([col]).to_pandas()
    if col not in df.columns:
        return np.array([], dtype=np.int64)
    return df[col].to_numpy()


def _broadcast_key_filter(left_ds, arr, on, anti=False):
    """The broadcast half of semi_join/anti_join: ship the distinct key
    array once via ray.put, keep (semi) or drop (anti) the rows whose
    key it holds, per batch with a vectorized searchsorted (numeric
    keys) or set isin (strings). Plain task map: the key array is
    fetched once per worker (:func:`worker_cached`), no actor pool."""
    import ray

    arr = np.asarray(arr)
    numeric = np.issubdtype(arr.dtype, np.number)
    payload = np.unique(arr) if numeric else frozenset(arr.tolist())
    ref = ray.put(payload)

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        k = worker_cached(ref)
        if not numeric:
            hit = b[on].isin(k).to_numpy()
        elif len(k) == 0:
            hit = np.zeros(len(b), dtype=bool)
        else:
            v = b[on].to_numpy()
            hit = k[np.clip(np.searchsorted(k, v), 0, len(k) - 1)] == v
        return b[~hit] if anti else b[hit]

    return left_ds.map_batches(filt, batch_format="pandas", batch_size=131072)


def semi_join(
    left_ds,
    right_keys_ds,
    on,
    right_on=None,
    broadcast_limit=5_000_000,
    num_partitions=32,
    right_rows_bound=None,
):
    """LEFT SEMI join with the same size guard as :func:`dim_join`:
    keep rows of ``left_ds`` whose key appears in ``right_keys_ds``,
    emitting each left row AT MOST ONCE and only left columns.

    ≤ ``broadcast_limit`` keys: the sorted distinct key array ships
    once via ray.put (zero-copy plasma view per worker) and the filter
    is a vectorized searchsorted per batch — no exchange. Above it:
    the key set is globally DEDUPLICATED distributed (coarse-bucketed
    drop_duplicates — per-batch distinct alone would duplicate left
    rows through the join) and flows through an inner hash join. Both
    paths produce identical output (test_dim_join_fallback).

    ``right_keys_ds`` may also be a numpy array / pandas Series of
    keys the CALLER already collected under its own size guard
    (e.g. a table_rows() metadata check) — that skips the Ray
    execution barrier the Dataset guard needs and goes straight to
    the broadcast filter."""
    import ray

    from .dedup import _adaptive_coarse, _coarse_bucket

    r_on = right_on or on
    if isinstance(right_keys_ds, (np.ndarray, pd.Series, list)):
        arr = np.asarray(
            right_keys_ds.to_numpy()
            if isinstance(right_keys_ds, pd.Series)
            else right_keys_ds
        )
        return _broadcast_key_filter(left_ds, arr, on)
    if (
        right_rows_bound is not None
        and right_rows_bound <= broadcast_limit
    ):
        # caller-supplied metadata bound (table_rows of the source the
        # key slice was filtered from): skip the materialize+count
        # barrier, collect the ≤-bound key column directly
        return _broadcast_key_filter(
            left_ds, _collect_keys(right_keys_ds, r_on), on
        )
    keys_ds = right_keys_ds.select_columns([r_on]).materialize()
    n = keys_ds.count()  # upper bound (pre-dedup) — a safe guard
    if n == 0:
        return left_ds.limit(0)  # empty key set ⇒ empty semi join
    if n <= broadcast_limit:
        return _broadcast_key_filter(left_ds, _collect_keys(keys_ds, r_on), on)

    # distributed: global distinct of the key set, then inner join —
    # with the fact side Bloom-prefiltered first (see dim_join): only
    # probable matches enter the join's all-to-all
    bitmap, pow_ = build_bloom(keys_ds, r_on, n)
    left_ds = bloom_prefilter(left_ds, bitmap, pow_, on)
    n_cb = _adaptive_coarse(n, per_group_target=200_000)
    distinct = (
        keys_ds.map_batches(
            lambda b, _n=n_cb: _coarse_bucket(
                b.drop_duplicates(r_on), r_on, _n
            ),
            batch_format="pandas",
        )
        .groupby("__ub")
        .map_groups(
            lambda g, _c=r_on: g.drop_duplicates(_c)[[_c]],
            batch_format="pandas",
        )
    )
    j = hash_join(
        left_ds,
        distinct,
        on=on,
        right_on=r_on if r_on != on else None,
        num_partitions=num_partitions,
    )
    if r_on != on:
        j = _drop_if_present(j, [r_on])
    return j
