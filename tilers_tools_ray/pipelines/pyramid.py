"""The flagship pipeline: images table → tile pyramid (SURVEY.md §3.1).

Engine equivalent of ``gdal_tiler.py``, as streaming Ray Data jobs:

  base level
   read images (column-pruned)
   → map_batches(FragmentEmitter) as stateless tasks  fan-out, M1/M4–M7,
                                                      fused with the read
   → groupby(part)[.map_groups]                       the ONE shuffle (A1)
        plain: composite_part_group
        salted: groupby(part, salt) partials → groupby(part) merge
   → per-part atomic parquet commit + lineage row (§4.3)
  overview cascade(s), down to z_min — no shuffle
   driver plan: level z's committed part files (from its manifests)
     grouped by anchor cell: several whole parts per cell, or one part
     holding several cells
   → one task per unit reads its own part files
   → cascade_part_group builds levels z-1 … anchor per cell (A2)
   → per-part atomic parquet commit + lineage row

Anchor rule: the coarsest zoom ≥ z_min whose largest cell holds at most
``CASCADE_MAX_TILES`` tiles of the level the cascade reads (counted from
that level's manifests). Levels left above the anchor repeat the rule
from the anchor level, so a build usually runs ONE cascade.

The auto-zoom scan is a driver-side read of two georef columns. The
salt plan (§4.2) and the cascade anchors are recorded in the lineage
tree: a resume with the same salt key reuses the plan instead of
re-running the census, and a resume that finds overview parts committed
at another anchor zoom refuses rather than mix part ids. Committed
(level, part) pairs are broadcast and pruned at the emitter — a resume
replays only incomplete tiles.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# NOTE: intra-package imports used inside WORKER-executed functions
# must live at module top, not inside the function: the driver contract
# ships this package to workers via cloudpickle
# register_pickle_by_value (workers may have no importable copy), which
# covers globals of pickled functions but NOT imports executed at call
# time on the worker (ModuleNotFoundError under a path-less driver).
from .. import raster
from .. import tilegrid as tg
from ..stages import tiling
from ..state import lineage

FRAG_COLUMNS = [
    "image_id",
    "bytes",
    "w",
    "h",
    "fmt",
    "caption",
    "gt",
    "srs",
    "cutline_wkb",
    "zorder",
    "poly",
]

#: columns silently dropped from a requested list when the input table
#: lacks them (older tables predate the order-2 GCP ``poly`` column);
#: every other missing column still fails loudly in read_parquet
OPTIONAL_COLUMNS = frozenset({"poly"})

#: largest cascade group, in tiles of the level the cascade reads:
#: 4^6, the group a six-level cascade over a full cell holds
CASCADE_MAX_TILES = 4**6


def _parquet_files(images_path):
    if os.path.isfile(images_path):
        return [images_path]
    return [
        os.path.join(images_path, f)
        for f in sorted(os.listdir(images_path))
        if f.endswith(".parquet")
    ]


def _prune_optional(images_path, columns):
    try:
        names = set(pq.read_schema(_parquet_files(images_path)[0]).names)
    except (OSError, IndexError):
        return columns
    return [c for c in columns if c in names or c not in OPTIONAL_COLUMNS]


def images_dataset(images_path, columns=None, num_blocks=None):
    import ray.data as rd

    from ..sources import lance_source

    if lance_source.is_lance_uri(images_path):  # S9 native scan
        return lance_source.read_lance(
            images_path,
            columns=[c for c in (columns or FRAG_COLUMNS)
                     if c not in OPTIONAL_COLUMNS],
            num_blocks=num_blocks,
        )
    columns = _prune_optional(images_path, columns or FRAG_COLUMNS)
    if num_blocks is None:
        # block count sets downstream TASK granularity: ~4 blocks/CPU
        # keeps the emitter tail short (per-image work is highly
        # variable); a single big parquet otherwise reads as ONE task
        try:
            import ray

            num_blocks = int(ray.cluster_resources().get("CPU", 8)) * 4
        except Exception:
            num_blocks = 32
    return rd.read_parquet(
        images_path,
        columns=columns,
        override_num_blocks=num_blocks,
    )


def _effective_res(batch: pa.Table, profile="mercator") -> np.ndarray:
    """Per-image source resolution in dest-PROFILE units (meters for
    mercator, degrees for geodetic). Vectorized: geotransforms arrive
    as one (n, 6) float view of the list column, srs strings are
    dictionary-encoded, and each DISTINCT srs (a handful per corpus —
    one projection parse each, not one per image) takes a single
    array-kernel pass; tmerc/conic ``inverse`` is numpy-vectorized."""
    n = batch.num_rows
    gt = np.asarray(
        batch.column("gt").combine_chunks().flatten(), dtype=np.float64
    ).reshape(n, 6)
    srs = batch.column("srs").combine_chunks().dictionary_encode()
    inv = srs.indices.to_numpy(zero_copy_only=False)
    res = np.abs(gt[:, 1])
    deg_per_m = 180.0 / tg.ORIGIN
    for j, s in enumerate(srs.dictionary.to_pylist()):
        sel = inv == j
        tm = raster._tmerc_of(s)
        if tm is not None:
            # UTM meters ≈ ground meters; mercator meters inflate by
            # 1/cos(lat) — evaluate at the image origin's latitude
            _, lat0 = tm.inverse(gt[sel, 0], gt[sel, 3])
            if profile == "geodetic":
                res[sel] *= deg_per_m
            else:
                res[sel] /= np.maximum(np.cos(np.radians(lat0)), 1e-6)
        elif profile == "geodetic":
            if s != "EPSG:4326":
                res[sel] *= deg_per_m
        elif s == "EPSG:4326":
            res[sel] /= deg_per_m
    return res


def auto_zoom(images_path, profile="mercator"):
    """Job-wide base zoom: finest per-image optimal zoom, from a
    driver-side read of the ``gt``/``srs`` columns only (no pixel
    decode, no Ray job — two small columns per image). For a RasterGrid
    profile the base zoom is the canvas's own (1 dest px = 1 canvas
    px)."""
    if isinstance(profile, tg.RasterGrid):
        return profile.z_base
    from ..sources import lance_source

    columns = ["gt", "srs"]
    if lance_source.is_lance_uri(images_path):
        table = lance_source.read_lance_table(images_path, columns)
    else:
        table = pq.read_table(_parquet_files(images_path), columns=columns)
    if table.num_rows == 0:
        raise ValueError(f"empty images table: {images_path}")
    min_res = float(_effective_res(table, profile).min())
    if profile == "geodetic":
        return int(tg.auto_base_zoom_geodetic(min_res))
    return int(tg.auto_base_zoom(min_res))


def _count_rows(images_path):
    """Total input rows (= zorder span) from parquet footers only."""
    return sum(
        pq.read_metadata(f).num_rows for f in _parquet_files(images_path)
    )


def default_z_part(z):
    """Partition cell zoom: 4 levels above the tiles (≤256 tiles/part)."""
    return max(z - 4, 0)


def census_parts(images_path, z_base, z_part, batch_size=512, profile="mercator"):
    """Georef-only census: fragments per part (upper bound — cutline
    drops are not modeled). Small result → driver. Feeds the salt plan
    (§4.2) and the skew report."""
    ds = images_dataset(images_path, columns=["gt", "srs", "w", "h", "poly"])
    parts = ds.map_batches(
        tiling.TouchedParts(z_base, z_part, profile=profile),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    agg = parts.groupby("part").sum("n")
    return agg.to_pandas()  # small: one row per part


def make_salt_plan(census_df, threshold=2000, target=1000):
    """parts whose fragment count exceeds ``threshold`` get
    ceil(n/target) contiguous-zorder salt ranges."""
    col = "sum(n)" if "sum(n)" in census_df.columns else "n"
    hot = census_df[census_df[col] > threshold]
    return {
        int(p): int(-(-int(n) // target))
        for p, n in zip(hot["part"], hot[col])
    }


def _recorded_salt_plan(out_dir, images_path, z_base, z_part, threshold, target, profile):
    """The salt plan recorded in the lineage tree under (threshold,
    target, z_part), or a fresh census + plan recorded there. Reuse is
    exact: with nearest resampling salted and unsalted builds write the
    same bytes, so the plan only decides how work is split."""
    key = {"threshold": threshold, "target": target, "z_part": z_part}
    rec = lineage.read_record(out_dir, "salt_plan")
    if rec is not None and rec["key"] == key:
        return {int(p): int(s) for p, s in rec["plan"].items()}
    census = census_parts(images_path, z_base, z_part, profile=profile)
    plan = make_salt_plan(census, threshold, target)
    lineage.write_record(
        out_dir, "salt_plan", {"key": key, "plan": {str(p): s for p, s in plan.items()}}
    )
    return plan


def fragments_dataset(
    images_path,
    z_base,
    z_part,
    *,
    resampling="nearest",
    salt_plan=None,
    n_zorder=1,
    done_parts=None,
    batch_size=32,
    profile="mercator",
    on_bad="raise",
):
    """images → fragment rows (the pre-shuffle fan-out stage).

    The emitter runs as stateless 1-CPU tasks, not an actor pool: its
    only state is two small broadcasts, Ray Data fuses the tasks with
    the parquet read, and a task releases its CPU between blocks, so the
    groupby reduce behind it always gets scheduled (a fixed actor pool
    held CPUs ahead of the reduce and deadlocked 1–2 CPU clusters). The
    per-task cache builds the emitter once per task, not once per
    batch."""
    import ray

    ctor_kwargs = {
        "z_base": z_base,
        "z_part": z_part,
        "resampling": resampling,
        "salt_plan": ray.put(salt_plan) if salt_plan else None,
        "n_zorder": n_zorder,
        "done_parts": ray.put(done_parts) if done_parts else None,
        "profile": profile,
        "on_bad": on_bad,
    }
    _state = {}

    def emit(batch):
        em = _state.get("em")
        if em is None:
            em = _state["em"] = tiling.FragmentEmitter(**ctor_kwargs)
        return em(batch)

    return images_dataset(images_path).map_batches(
        emit, batch_format="pyarrow", batch_size=batch_size, num_cpus=1
    )


def _composite(frags, salted, wrap=lambda fn: fn):
    """The base-level shuffle: one groupby(part) composite, or salted
    (part, salt) partials merged per part. ``wrap`` turns the per-part
    reduce into its committing form."""
    if salted:
        frags = frags.groupby(["part", "salt"]).map_groups(
            tiling.partial_composite_group, batch_format="pyarrow"
        )
        reduce_fn = tiling.merge_partials_group
    else:
        reduce_fn = tiling.composite_part_group
    return frags.groupby("part").map_groups(wrap(reduce_fn), batch_format="pyarrow")


def base_tiles(
    images_path,
    z_base=None,
    *,
    z_part=None,
    resampling="nearest",
    salt_plan=None,
    n_zorder=1,
    batch_size=16,
    profile="mercator",
):
    """Pure (no side effects) base-tile Dataset — tests / entry()."""
    if z_base is None:
        z_base = auto_zoom(images_path, profile=profile)
    if z_part is None:
        z_part = default_z_part(z_base)
    frags = fragments_dataset(
        images_path,
        z_base,
        z_part,
        resampling=resampling,
        salt_plan=salt_plan,
        n_zorder=n_zorder,
        batch_size=batch_size,
        profile=profile,
    )
    return _composite(frags, bool(salt_plan))


def _with_part(batch, z_part, done=()):
    """Replace the ``part`` column with each tile's ancestor cell at
    ``z_part``, dropping tiles whose part is in ``done``."""
    part = tiling.part_of_key(batch.column("tile_key").to_numpy(), z_part)
    if "part" in batch.schema.names:
        batch = batch.drop_columns(["part"])
    batch = batch.append_column("part", pa.array(part, pa.int64()))
    if len(done):
        batch = batch.filter(pa.array(~np.isin(part, done)))
    return batch


def overview_tiles(tiles_ds, z_child, *, z_part=None, overview_resampling="box"):
    """One overview step: tiles at z_child → tiles at z_child-1 (pure)."""
    if z_part is None:
        z_part = default_z_part(z_child - 1)
    return tiles_ds.map_batches(
        lambda b, _zp=z_part: _with_part(b, _zp), batch_format="pyarrow"
    ).groupby("part").map_groups(
        lambda g, _z=z_child, _m=overview_resampling: tiling.cascade_part_group(
            g, _z - 1, _z, _m
        )[_z - 1],
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# checkpointed job (write_pyramid)
# ---------------------------------------------------------------------------


#: one lineage row per committed (level, part)
COMMIT_SCHEMA = pa.schema(
    [
        ("z", pa.int32()),
        ("part", pa.int64()),
        ("n_tiles", pa.int64()),
        ("checksum_xor", pa.int64()),
    ]
)


def _commit_group_fn(out_dir, reduce_fn):
    """Wrap a part reduce returning {z: tile rows} into a commit-to-disk
    fn returning one lineage row per level. Runs inside the reduce task
    → per-partition atomic checkpoint (§4.3)."""

    def commit(group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        part = int(group.column("part")[0].as_py())
        rows = {"z": [], "part": [], "n_tiles": [], "checksum_xor": []}
        for z, tbl in reduce_fn(group).items():
            # per-level INCREMENT (resetting t0 per commit) — a shared
            # t0 would make every cascade level's wall_s report the
            # whole cascade compute, multiply-counting it in rollups
            manifest = _part_manifest(z, part, tbl, t0)
            t0 = time.monotonic()
            lineage.commit_part(out_dir, z, part, tbl, manifest)
            rows["z"].append(z)
            rows["part"].append(part)
            rows["n_tiles"].append(tbl.num_rows)
            rows["checksum_xor"].append(manifest["checksum_xor"])
        return pa.table(rows, schema=COMMIT_SCHEMA)

    return commit


def _part_manifest(z, part, tiles_tbl, t0):
    """Slim per-partition lineage record. The committed parquet file
    itself is the authoritative carrier of tile_keys / src_ids /
    per-tile checksums (they are columns); the manifest stores the
    rollup + key range so audits and resume stay O(1) per part."""
    keys = tiles_tbl.column("tile_key")
    return {
        "z": z,
        "part": part,
        "n_tiles": tiles_tbl.num_rows,
        "key_min": int(pc.min(keys).as_py()) if tiles_tbl.num_rows else 0,
        "key_max": int(pc.max(keys).as_py()) if tiles_tbl.num_rows else 0,
        "n_inputs": pc.count_distinct(
            pc.list_flatten(tiles_tbl.column("src_ids"))
        ).as_py(),
        "checksum_xor": int(
            np.bitwise_xor.reduce(tiles_tbl.column("checksum").to_numpy(), initial=0)
        ),
        "wall_s": round(time.monotonic() - t0, 4),
    }


def _mark_levels(out_dir, levels, stats, n_done):
    """Write each level's completion marker from the commit rows of
    this run plus the ``n_done`` parts an earlier run committed."""
    for z in levels:
        lv = stats[stats["z"] == z] if len(stats) else stats
        lineage.mark_level_complete(
            out_dir,
            z,
            {
                "z": z,
                "parts": int(len(lv)) + n_done,
                "tiles": int(lv["n_tiles"].sum()) if len(lv) else 0,
            },
        )


def _read_level(out_dir, z, columns=None):
    import ray.data as rd

    from ..relational.ops import _aligned_num_blocks

    # file_extensions guards against stale part-*.parquet.tmp.<pid> files
    # left by a crashed writer: readers must only see committed parts.
    # Block count is row-group-aligned: Ray's 200-block floor re-reads
    # whole row groups when parts are fewer — on PIXEL columns that is
    # the most expensive possible amplification (see ops._aligned_num_blocks).
    d = lineage.level_dir(out_dir, z)
    return rd.read_parquet(
        d, columns=columns,
        file_extensions=["parquet"],
        override_num_blocks=_aligned_num_blocks(d),
    )


def cascade_anchor(manifests, z_read, z_min):
    """Coarsest zoom ≥ z_min whose largest cell holds at most
    ``CASCADE_MAX_TILES`` tiles of level ``z_read``. ``manifests`` are
    that level's ({part: manifest}); a part id is its cell's tile key,
    so a cell at zoom ``a`` at or above the part zoom counts its parts'
    ``n_tiles`` exactly, and one below a part is bounded by the part's
    count and by 4^(z_read - a)."""
    parts = np.fromiter(manifests, dtype=np.int64, count=len(manifests))
    n = np.array([m["n_tiles"] for m in manifests.values()], dtype=np.int64)
    pz = tg.unpack_key(parts)[0]
    for a in range(z_min, z_read - 1):  # z_read - 1 always qualifies
        coarse = pz >= a
        _, cell = np.unique(tiling.part_of_key(parts[coarse], a), return_inverse=True)
        largest = max(
            np.bincount(cell, weights=n[coarse]).max(initial=0),
            n[~coarse].max(initial=0),
        )
        if min(largest, 4 ** (z_read - a)) <= CASCADE_MAX_TILES:
            return a
    return z_read - 1


def _read_part(path):
    """One committed part file, whole. A ParquetFile read infers no
    hive ``z`` partition column from ``tiles/z=<z>/``, which would clash
    with the stored ``z``."""
    return pq.ParquetFile(path).read()


def _cascade_units(out_dir, z_read, manifests, anchor, done):
    """The cascade's plan, from level ``z_read``'s manifests: its
    committed part files grouped by ``part_of_key(part, min(part zoom,
    anchor))``. A part at the anchor zoom or finer joins the other parts
    of its anchor cell; a part coarser than the anchor is a unit of its
    own, holding several anchor cells. Units whose anchor cell is done
    at every level are dropped; a coarse part's done cells are dropped
    inside its task."""
    parts = np.fromiter(manifests, dtype=np.int64, count=len(manifests))
    pz = tg.unpack_key(parts)[0]
    keys = tiling.part_of_key(parts, np.minimum(pz, anchor))
    units = {}
    for p, k in zip(parts.tolist(), keys.tolist()):
        units.setdefault(k, []).append(lineage.part_parquet_path(out_dir, z_read, p))
    return [{"paths": paths} for k, paths in sorted(units.items()) if k not in done]


def _write_cascade(out_dir, z_read, anchor, manifests, overview_resampling):
    """Levels z_read-1 … anchor with no shuffle: the driver groups level
    z_read's committed part files (``manifests``: {part: manifest}) into
    units by anchor cell, one Ray task per unit reads its own files, and
    each anchor cell builds its whole sub-pyramid locally. Files no
    manifest lists (orphans, stale ``.tmp.<pid>`` writes) are never
    read."""
    levels = range(anchor, z_read)
    if all(lineage.level_is_complete(out_dir, z) for z in levels):
        return
    committed = [lineage.done_parts(out_dir, z) for z in levels]
    for z, done in zip(levels, committed):
        zs = set(tg.unpack_key(np.array(sorted(done), dtype=np.int64))[0].tolist())
        if zs - {anchor}:
            raise ValueError(
                f"resume anchor mismatch for {out_dir}: level {z} has parts "
                f"committed at anchor zoom(s) {sorted(zs - {anchor})}, this "
                f"run cascades from z={z_read} to anchor {anchor} — use a "
                "fresh output dir (mixing anchors would mix part ids)"
            )
    anchors = lineage.read_record(out_dir, "anchors") or {}
    lineage.write_record(out_dir, "anchors", {**anchors, str(z_read): anchor})
    done = frozenset.intersection(*committed)
    units = _cascade_units(out_dir, z_read, manifests, anchor, done)
    done_arr = np.array(sorted(done), dtype=np.int64)
    commit = _commit_group_fn(
        out_dir,
        lambda g: tiling.cascade_part_group(g, anchor, z_read, overview_resampling),
    )

    def run(batch: pa.Table) -> pa.Table:
        paths = batch.column("paths")[0].as_py()
        tiles = _with_part(
            pa.concat_tables([_read_part(p) for p in paths]), anchor, done_arr
        )
        cells = tiles.column("part").to_numpy()
        return pa.concat_tables(
            [COMMIT_SCHEMA.empty_table()]
            + [commit(tiles.filter(pa.array(cells == c))) for c in np.unique(cells)]
        )

    stats = COMMIT_SCHEMA.empty_table().to_pandas()
    if units:
        import ray.data as rd

        stats = (
            rd.from_items(units, override_num_blocks=len(units))
            .map_batches(run, batch_size=1, batch_format="pyarrow")
            .to_pandas()
        )
    _mark_levels(out_dir, levels, stats, len(done))


def write_pyramid(
    images_path,
    out_dir,
    *,
    z_base=None,
    z_min=4,
    resampling="nearest",
    salt="auto",
    salt_threshold=1000,
    salt_target=400,
    batch_size=16,
    profile="mercator",
    overview_resampling="box",
    on_bad_image="raise",
):
    """Full checkpointed pyramid build. Returns the job summary (A5).

    ``profile`` selects the dest tile grid (mercator | geodetic —
    gdal_tiler's profile option; the cut/composite/overview machinery
    is profile-agnostic once fragments carry tile keys).

    Resume semantics: committed (level, part) partitions are skipped —
    fragment emission prunes done parts (an image whose parts are all
    committed is never decoded), the recorded salt plan is reused, and
    completed levels short-circuit."""
    if z_base is None:
        z_base = auto_zoom(images_path, profile=profile)
    os.makedirs(out_dir, exist_ok=True)
    lineage.check_job_meta(
        out_dir,
        {
            "profile": tg.profile_tag(profile),
            "z_base": int(z_base),
            "z_min": int(z_min),
            "resampling": resampling,
            "overview_resampling": overview_resampling,
        },
    )
    # --- base level --------------------------------------------------------
    if not lineage.level_is_complete(out_dir, z_base):
        z_part = default_z_part(z_base)
        done = lineage.done_parts(out_dir, z_base)
        salt_plan = None
        n_zorder = 1
        # The salted partial-composite-then-merge path is byte-exact
        # only for NEAREST resampling (binary fragment alpha makes the
        # composite associative); bilinear/bicubic fragments carry
        # fractional alpha, where per-stage uint8 rounding would make
        # salted != unsalted. Auto-salting therefore degrades to the
        # unsalted single-stage fold for non-nearest kernels.
        if resampling != "nearest":
            if isinstance(salt, dict):
                raise ValueError(
                    "explicit salt plan requires resampling='nearest' "
                    "(salted merge is not byte-exact for fractional-alpha "
                    f"fragments; got resampling={resampling!r})"
                )
            salt = False
        if salt == "auto" or salt is True:
            salt_plan = _recorded_salt_plan(
                out_dir, images_path, z_base, z_part, salt_threshold,
                salt_target, profile,
            )
            n_zorder = _count_rows(images_path)
        elif isinstance(salt, dict):
            salt_plan = salt
        frags = fragments_dataset(
            images_path,
            z_base,
            z_part,
            resampling=resampling,
            salt_plan=salt_plan,
            n_zorder=n_zorder,
            done_parts=done,
            batch_size=batch_size,
            profile=profile,
            on_bad=on_bad_image,
        )
        stats = _composite(
            frags,
            bool(salt_plan),
            lambda fn: _commit_group_fn(out_dir, lambda g: {z_base: fn(g)}),
        ).to_pandas()  # tiny: one row per part
        _mark_levels(out_dir, [z_base], stats, len(done))
    # --- overview cascades down to z_min -----------------------------------
    z_read = z_base
    while z_read > z_min:
        manifests = lineage.read_manifests(out_dir, z_read)
        anchor = cascade_anchor(manifests, z_read, z_min)
        _write_cascade(out_dir, z_read, anchor, manifests, overview_resampling)
        z_read = anchor
    return lineage.job_summary(out_dir)


def read_tiles(out_dir, z=None, columns=None):
    """Read the written pyramid back as a Dataset (optionally one level)."""
    import ray.data as rd

    if z is not None:
        return _read_level(out_dir, z, columns)
    root = os.path.join(out_dir, "tiles")
    paths = [
        os.path.join(root, d, f)
        for d in sorted(os.listdir(root))
        for f in sorted(os.listdir(os.path.join(root, d)))
        if f.endswith(".parquet")
    ]
    from ..relational.ops import _aligned_num_blocks

    # row-group-aligned (pixel columns — amplification is costliest here)
    return rd.read_parquet(
        paths, columns=columns, override_num_blocks=_aligned_num_blocks(paths)
    )
