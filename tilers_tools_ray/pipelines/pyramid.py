"""The flagship pipeline: images table → tile pyramid (SURVEY.md §3.1).

Engine equivalent of ``gdal_tiler.py``, with no shuffle and no Ray Data
job anywhere: every stage runs as plain Ray tasks, one per unit of a
driver-side plan (``_run_units``):

  census (salted builds only): one task per input unit (``_image_units``)
   → tiling.TouchedParts on the georef columns → (part, n) rows → driver
  base level (A1), through local exchange files under <out>/exchange/
   driver plan: the input's whole row groups (from the parquet footers)
     dealt in order into units of similar row counts, ≤ 4 per CPU
   → one task per unit reads its own row groups (column-pruned), builds
     FragmentEmitter once and feeds it batch_size-row slices  M1/M4–M7
   → each slice's fragments spilled (_spill_fn) to one part-sorted file,
     one row group per (part, salt); the task returns index rows → driver
   → driver plan: one unit per unsalted part, one per (part, salt) of a
     salted part (§4.2); each unit reads only its own row groups and
     runs the per-tile fold (tiling.fold_part) over them
        plain: tile rows → per-part atomic commit (§4.3)
        salted: partial rows → partial file in the exchange
   → salted parts only: one unit per part runs the same fold over its
     partials (salt order) → per-part atomic commit
  overview cascade(s), down to z_min — no shuffle
   driver plan: level z's committed part files (from its manifests)
     grouped by anchor cell: several whole parts per cell, or one part
     holding several cells
   → each unit reads its own part files, in a Ray task
   → cascade levels z-1 … anchor built per cell (A2), each level
     committed as soon as it is built
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
replays only incomplete tiles. Exchange files are read only as the index
of this run lists them, so orphans of a crashed run or of a retried task
attempt are never read; the exchange dir is wiped before emission and
removed once the base level is marked complete.
"""

from __future__ import annotations

import functools
import logging
import os
import shutil
import tempfile
import time
import uuid

import numpy as np
import pandas as pd
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
from ..scan import Scan, _cluster_cpus, _run_units
from ..sources import lance_source
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

#: images per FragmentEmitter call (and per spilled exchange file)
EMIT_BATCH_SIZE = 16


def _parquet_files(images_path):
    if os.path.isfile(images_path):
        return [images_path]
    return [
        os.path.join(images_path, f)
        for f in sorted(os.listdir(images_path))
        if f.endswith(".parquet")
    ]


def _prune_optional(images_path, columns):
    if lance_source.is_lance_uri(images_path):
        return [c for c in columns if c not in OPTIONAL_COLUMNS]
    try:
        names = set(pq.read_schema(_parquet_files(images_path)[0]).names)
    except (OSError, IndexError):
        return columns
    return [c for c in columns if c in names or c not in OPTIONAL_COLUMNS]


def images_dataset(images_path, columns=None):
    """A lazy plain-task scan (``scan.Scan``) of the images table: one
    task per ``_image_units`` unit (whole row groups or Lance fragments,
    never split, so image bytes are read once). Its Ray Data plan, for
    any wide step or actor pool, is the native read: parquet in ~4
    blocks per CPU (per-image work is highly variable, so small blocks
    keep a stage's tail short), Lance with Ray Data's own block count."""
    import ray.data as rd

    columns = _prune_optional(images_path, columns or FRAG_COLUMNS)
    units, n_rows = _image_units(images_path)
    if lance_source.is_lance_uri(images_path):  # S9 native scan
        replay = functools.partial(
            lance_source.read_lance, images_path, columns=columns
        )
    else:
        replay = functools.partial(
            rd.read_parquet,
            images_path,
            columns=columns,
            override_num_blocks=4 * _cluster_cpus(),
        )
    return Scan(units, functools.partial(_unit_rows, columns=columns), replay, n_rows)


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


def _image_units(images_path):
    """The input's plan: its pieces (parquet row groups, from the
    footers; Lance fragments), whole, dealt in order into at most
    ``min(4 × cluster CPUs, pieces)`` units of similar row counts (the
    rule ``images_dataset`` uses: per-image work varies widely, and
    smaller units keep the tail short). A piece is never split, so each
    is read once. A unit is a list of ``(path, piece)`` pairs. Returns
    ``(units, n_rows)``, ``n_rows`` being the zorder span."""
    if lance_source.is_lance_uri(images_path):
        pieces = [(images_path, f, n) for f, n in lance_source.fragment_rows(images_path)]
    else:
        pieces = []
        for path in _parquet_files(images_path):
            meta = pq.read_metadata(path)
            pieces += [(path, i, meta.row_group(i).num_rows) for i in range(meta.num_row_groups)]
    pieces = [p for p in pieces if p[2]]
    n_rows = sum(n for *_, n in pieces)
    k = min(4 * _cluster_cpus(), len(pieces))
    units, dealt = [], 0
    for path, piece, n in pieces:
        # a new unit when the piece's middle row lies past the current
        # unit's share of the rows
        if not units or (len(units) < k and (2 * dealt + n) * k > 2 * n_rows * len(units)):
            units.append([])
        units[-1].append((path, piece))
        dealt += n
    return units, n_rows


def _unit_rows(unit, columns):
    """A unit's rows (``columns`` only), in input order, one whole piece
    at a time, so a task holds one piece of its unit, not all."""
    for path, i in unit:
        if lance_source.is_lance_uri(path):
            yield lance_source.read_fragment(path, i, columns)
        else:
            yield pq.ParquetFile(path).read_row_group(i, columns=columns)


def default_z_part(z):
    """Partition cell zoom: 4 levels above the tiles (≤256 tiles/part)."""
    return max(z - 4, 0)


def census_parts(images_path, z_base, z_part, profile="mercator"):
    """Georef-only census: fragments per part (upper bound — cutline
    drops are not modeled), as a (``part``, ``n``) frame sorted by part.
    One task per input unit pre-aggregates its rows; the driver sums
    their few rows. Feeds the salt plan (§4.2) and the skew report."""
    import ray

    columns = _prune_optional(images_path, ["gt", "srs", "w", "h", "poly"])
    touched = tiling.TouchedParts(z_base, z_part, profile=profile)
    refs = _run_units(
        _image_units(images_path)[0],
        lambda u: touched(pa.concat_tables(list(_unit_rows(u, columns)))),
    )
    empty = pa.table({"part": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    parts = pa.concat_tables([empty] + ray.get(refs))  # one row per (unit, part)
    part, cell = np.unique(parts.column("part").to_numpy(), return_inverse=True)
    n = np.bincount(cell, weights=parts.column("n").to_numpy())
    return pd.DataFrame({"part": part, "n": n.astype(np.int64)})


def make_salt_plan(census_df, threshold=2000, target=1000):
    """parts whose fragment count exceeds ``threshold`` get
    ceil(n/target) contiguous-zorder salt ranges."""
    hot = census_df[census_df["n"] > threshold]
    return {int(p): int(-(-int(n) // target)) for p, n in zip(hot["part"], hot["n"])}


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


def _emit_units(
    images_path,
    z_base,
    z_part,
    sink=None,
    *,
    resampling="nearest",
    salt_plan=None,
    n_zorder=1,
    done_parts=None,
    batch_size=EMIT_BATCH_SIZE,
    profile="mercator",
    on_bad="raise",
    units=None,
):
    """The emission: one plain Ray task per input unit (``units``, by
    default ``_image_units``'s plan). A task builds the FragmentEmitter
    once, reads its own pieces one at a time, feeds the emitter slices of
    at most ``batch_size`` rows of each piece and passes each slice's
    fragments through ``sink`` (default: kept as they are); it returns
    the concatenated sink outputs. The emitter's only state
    is two broadcasts, and no task holds a CPU once its unit is done (a
    fixed actor pool held CPUs ahead of the reduces and deadlocked 1–2
    CPU clusters). Returns the object refs of the result tables."""
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
    columns = _prune_optional(images_path, FRAG_COLUMNS)
    sink = sink or (lambda frags: frags)

    def emit(unit):
        em = tiling.FragmentEmitter(**ctor_kwargs)
        return pa.concat_tables([
            sink(em(rows.slice(a, batch_size)))
            for rows in _unit_rows(unit, columns)
            for a in range(0, rows.num_rows, batch_size)
        ])

    return _run_units(_image_units(images_path)[0] if units is None else units, emit)


def fragments_dataset(
    images_path,
    z_base,
    z_part,
    *,
    resampling="nearest",
    salt_plan=None,
    n_zorder=1,
    done_parts=None,
    batch_size=EMIT_BATCH_SIZE,
    profile="mercator",
    on_bad="raise",
):
    """images → fragment rows: the emission ``write_pyramid`` runs
    (``_emit_units``), without the spill, as a materialized Dataset of
    ``tiling.FRAGMENT_SCHEMA`` tables. Under ``on_bad="skip"`` a skipped
    image leaves one ``tiling.SKIPPED_PART`` row."""
    import ray.data as rd

    return rd.from_arrow_refs(_emit_units(
        images_path, z_base, z_part, resampling=resampling, salt_plan=salt_plan,
        n_zorder=n_zorder, done_parts=done_parts, batch_size=batch_size,
        profile=profile, on_bad=on_bad,
    ))


def base_tiles(
    images_path,
    z_base=None,
    *,
    z_part=None,
    resampling="nearest",
    salt_plan=None,
    n_zorder=1,
    batch_size=EMIT_BATCH_SIZE,
    profile="mercator",
):
    """Pure (no side effects) base-tile Dataset — tests / entry(). The
    same base-level routine as ``write_pyramid`` with committing off,
    through a temporary exchange dir; returns the materialized tiles.

    The exchange dir is a ``tempfile.mkdtemp`` dir under the driver's
    temp dir (``TMPDIR``), and the workers write and read every fragment
    there: this needs a single node, or a ``TMPDIR`` on a filesystem
    every worker mounts at the same path."""
    import ray.data as rd

    if z_base is None:
        z_base = auto_zoom(images_path, profile=profile)
    if z_part is None:
        z_part = default_z_part(z_base)
    exchange = tempfile.mkdtemp(prefix="ttr-exchange-")
    try:
        refs = _base_level(
            images_path,
            exchange,
            z_base,
            z_part,
            resampling=resampling,
            salt_plan=salt_plan,
            n_zorder=n_zorder,
            batch_size=batch_size,
            profile=profile,
        )
    finally:
        shutil.rmtree(exchange, ignore_errors=True)
    if not refs:
        return rd.from_arrow(tiling.TILE_SCHEMA.empty_table())
    return rd.from_arrow_refs(refs)


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


# ---------------------------------------------------------------------------
# base level: fragment exchange through local files
# ---------------------------------------------------------------------------


#: one row per (part, salt) row group of a spilled fragment file, or one
#: row per skipped image (null ``path``, its id and reason)
INDEX_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("salt", pa.int32()),
        ("path", pa.string()),
        ("row_group", pa.int32()),
        ("image_id", pa.string()),
        ("reason", pa.string()),
    ]
)

_FRAG_ORDER = [(c, "ascending") for c in ("part", "salt", "tile_key", "zorder")]


def _index_rows(num_rows, **cols):
    return pa.table(
        {f.name: cols.get(f.name, pa.nulls(num_rows, f.type)) for f in INDEX_SCHEMA},
        schema=INDEX_SCHEMA,
    )


def _spill_fn(exchange):
    """The stage after the emitter: sort a batch's fragments by (part,
    salt, tile_key, zorder), write them to one new file in ``exchange``
    (a uuid name per call, so a retried task attempt never overwrites a
    file the index lists) with one row group per (part, salt), and
    return the index rows."""

    def spill(frags: pa.Table) -> pa.Table:
        skipped = pc.equal(frags.column("part"), tiling.SKIPPED_PART)
        bad = frags.filter(skipped)
        frags = frags.filter(pc.invert(skipped)).sort_by(_FRAG_ORDER)
        out = [
            _index_rows(
                bad.num_rows,
                image_id=bad.column("image_id"),
                reason=bad.column("caption"),
            )
        ]
        if frags.num_rows:
            part = frags.column("part").to_numpy()
            salt = frags.column("salt").to_numpy()
            starts = np.flatnonzero(
                np.r_[True, (part[1:] != part[:-1]) | (salt[1:] != salt[:-1])]
            )
            ends = np.r_[starts[1:], len(part)]
            path = os.path.join(exchange, f"frags-{uuid.uuid4().hex}.parquet")
            with pq.ParquetWriter(
                path, frags.schema, compression="none", use_dictionary=False
            ) as w:
                for a, b in zip(starts.tolist(), ends.tolist()):
                    w.write_table(frags.slice(a, b - a), row_group_size=b - a)
            out.append(
                _index_rows(
                    len(starts),
                    part=part[starts],
                    salt=salt[starts],
                    path=[path] * len(starts),
                    row_group=np.arange(len(starts)),
                )
            )
        return pa.concat_tables(out)

    return spill


def _read_fragments(path, row_group):
    """One row group of an exchange file: a (part, salt) of a spilled
    fragment file, or a partial file (one row group)."""
    return pq.ParquetFile(path).read_row_group(row_group)


def _partial_path(exchange, part, salt):
    return os.path.join(exchange, f"partial-{part}-{salt}.parquet")


def _write_partial(exchange, part, salt, table):
    final = _partial_path(exchange, part, salt)
    tmp = f"{final}.tmp.{os.getpid()}"
    pq.write_table(
        table, tmp, row_group_size=max(table.num_rows, 1), compression="none",
        use_dictionary=False,
    )
    os.replace(tmp, final)


def _record_skipped(out_dir, skipped):
    """Merge {image_id: reason} into the ``skipped_images`` record, so
    a resume that never decodes an image again keeps its report."""
    if not skipped:
        return
    logging.getLogger(__name__).warning(
        "skipped %d bad image(s): %s", len(skipped), sorted(skipped)
    )
    old = lineage.read_record(out_dir, "skipped_images") or {}
    lineage.write_record(out_dir, "skipped_images", {**old, **skipped})


def _commit_rows(refs):
    """The commit rows of a committing job's result tables (tiny)."""
    import ray

    return pa.concat_tables([COMMIT_SCHEMA.empty_table()] + ray.get(refs)).to_pandas()


def _base_level(images_path, exchange, z_base, z_part, commit_dir=None, *,
                salt_plan=None, **emit_kwargs):
    """The base level with no shuffle (A1, §4.2): emit + spill into
    ``exchange``, then one fold (``tiling.fold_part``) per unit reading
    its own row groups, then one fold per salted part over its partials
    (all through ``_run_units``; a reduce's error raises before the
    merges start). With ``commit_dir`` every part is committed there,
    the result holds one ``COMMIT_SCHEMA`` row per part, and the images
    the emitter skipped are recorded; without, the result is the tile
    rows. Returns the object refs of the result tables."""
    import ray

    shutil.rmtree(exchange, ignore_errors=True)
    os.makedirs(exchange)
    # small: one row per (batch, part, salt). Kept in Arrow: a pandas
    # frame would turn the int64 part ids into float64 (53-bit) as soon
    # as a skipped image's row carries a null part
    index = pa.concat_tables(
        [INDEX_SCHEMA.empty_table()]
        + ray.get(_emit_units(images_path, z_base, z_part, _spill_fn(exchange),
                              salt_plan=salt_plan, **emit_kwargs))
    )
    bad = pc.is_null(index.column("path"))
    if commit_dir is None:
        fold, empty = tiling.fold_part, tiling.TILE_SCHEMA.empty_table()
    else:
        skipped = index.filter(bad)
        _record_skipped(
            commit_dir,
            dict(zip(skipped.column("image_id").to_pylist(), skipped.column("reason").to_pylist())),
        )
        fold = _commit_group_fn(commit_dir, lambda g: [(z_base, tiling.fold_part(g))])
        empty = COMMIT_SCHEMA.empty_table()
    plan = salt_plan or {}
    units, salts = {}, {}
    index = index.filter(pc.invert(bad))
    for p, s, path, rg in zip(
        *(index.column(c).to_pylist() for c in ("part", "salt", "path", "row_group"))
    ):
        salted = plan.get(p, 1) > 1
        u = units.setdefault((p, s), {"part": p, "salt": s, "partial": salted, "reads": []})
        u["reads"].append((path, rg))
        if salted:
            salts.setdefault(p, set()).add(s)

    def reduce(u):
        states = pa.concat_tables([_read_fragments(*r) for r in u["reads"]])
        if not u["partial"]:
            return fold(states)
        _write_partial(exchange, u["part"], u["salt"], tiling.fold_part(states, partial=True))
        return empty

    parts = _run_units(list(units.values()), reduce)  # before the merges
    merges = [
        {"partial": False, "reads": [(_partial_path(exchange, p, s), 0) for s in sorted(ss)]}
        for p, ss in sorted(salts.items())
    ]
    return parts + _run_units(merges, reduce)


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
    """Wrap a part reduce yielding ``(z, tile rows)`` pairs into a
    commit-to-disk fn returning one lineage row per level. Runs inside
    the reduce task → per-partition atomic checkpoint (§4.3)."""

    def commit(group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        part = int(group.column("part")[0].as_py())
        rows = {"z": [], "part": [], "n_tiles": [], "checksum_xor": []}
        for z, tbl in reduce_fn(group):
            # the pairs are consumed lazily and t0 is reset per level, so
            # a level's wall_s is its own build plus the commit of the
            # level before it, never the whole cascade's compute
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
        units.setdefault(k, {"paths": []})["paths"].append(
            lineage.part_parquet_path(out_dir, z_read, p)
        )
    return [u for k, u in sorted(units.items()) if k not in done]


def _write_cascade(out_dir, z_read, anchor, manifests, overview_resampling):
    """Levels z_read-1 … anchor with no shuffle: the driver groups level
    z_read's committed part files (``manifests``: {part: manifest}) into
    units by anchor cell, each unit reads its own files in a Ray task, and
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
        lambda g: tiling._cascade_levels(g, anchor, z_read, overview_resampling),
    )

    def run(unit):
        tiles = _with_part(
            pa.concat_tables([_read_part(p) for p in unit["paths"]]), anchor, done_arr
        )
        cells = tiles.column("part").to_numpy()
        return pa.concat_tables(
            [COMMIT_SCHEMA.empty_table()]
            + [commit(tiles.filter(pa.array(cells == c))) for c in np.unique(cells)]
        )

    _mark_levels(out_dir, levels, _commit_rows(_run_units(units, run)), len(done))


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
    batch_size=EMIT_BATCH_SIZE,
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
    completed levels short-circuit. Images skipped under
    ``on_bad_image="skip"`` are recorded as {image_id: reason} in
    ``lineage/skipped_images.json``, merged across resumes."""
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
    exchange = os.path.join(out_dir, "exchange")
    if not lineage.level_is_complete(out_dir, z_base):
        z_part = default_z_part(z_base)
        done = lineage.done_parts(out_dir, z_base)
        salt_plan = None
        n_zorder = 1
        units, n_rows = _image_units(images_path)
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
            n_zorder = n_rows
        elif isinstance(salt, dict):
            salt_plan = salt
        refs = _base_level(
            images_path,
            exchange,
            z_base,
            z_part,
            out_dir,
            resampling=resampling,
            salt_plan=salt_plan,
            n_zorder=n_zorder,
            done_parts=done,
            batch_size=batch_size,
            profile=profile,
            on_bad=on_bad_image,
            units=units,
        )
        _mark_levels(out_dir, [z_base], _commit_rows(refs), len(done))
    shutil.rmtree(exchange, ignore_errors=True)
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
