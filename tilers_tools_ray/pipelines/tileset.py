"""Tile-set transforms: merge, convert, tree export/import, stats.

Engine equivalents of ``tiles_merge.py`` + ``tiles_convert.py``
(SURVEY.md §3.3):

  merge_tilesets   — N tile Datasets → one, compositing collisions in
                     CLI order (D1/J4/A1). Same part-grouped shuffle as
                     the pyramid composite.
  convert_layout   — pure key/path re-codec (M9) + optional re-encode
                     (M2); embarrassingly parallel, NO shuffle (the
                     TMS↔XYZ y-flip is per-row).
  export_tree      — materialize a real z/x/y.ext directory tree (S7)
                     via a side-effect map_batches writer + a tilemap
                     metadata sidecar (A3 rollup).
  read_tile_tree   — tile-directory source (S8): read_binary_files +
                     path→(z,x,y) parse, any registered layout.
  tileset_stats    — per-zoom count/bbox aggregate (A3).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from .. import codecs, raster
from .. import tilegrid as tg
from ..stages import tiling


def _to_merge_fragments(tiles_ds, order, z_part_of):
    """Tile rows → merge-fragment rows with tileset ``order``."""

    def tag(batch: pa.Table) -> pa.Table:
        keys = batch.column("tile_key").to_numpy()
        z, x, y = tg.unpack_key(keys)
        zp = np.array([z_part_of(int(v)) for v in z], dtype=np.int64)
        part = tg.pack_key(zp, x >> (z - zp), y >> (z - zp))
        cols = {
            "part": pa.array(part, pa.int64()),
            "tile_key": batch.column("tile_key"),
            "order": pa.array(np.full(len(keys), order), pa.int32()),
            "caption": batch.column("caption"),
            "pixels": batch.column("pixels"),
            "src_ids": batch.column("src_ids"),
        }
        return pa.table(cols)

    return tiles_ds.map_batches(tag, batch_format="pyarrow")


def merge_part_group(group: pa.Table) -> pa.Table:
    """All (tileset, tile) entries of one part → merged tile rows."""
    part = int(group.column("part")[0].as_py())
    keys = group.column("tile_key").to_pylist()
    orders = group.column("order").to_pylist()
    caps = group.column("caption").to_pylist()
    pix = group.column("pixels").to_pylist()
    srcs = group.column("src_ids").to_pylist()
    per_tile = {}
    for i, k in enumerate(keys):
        per_tile.setdefault(k, []).append(
            (orders[i], None, caps[i], tiling._np_frag(pix[i]), srcs[i])
        )
    reduced = []
    for k in sorted(per_tile):
        pixels, caption, src_ids = raster.reduce_merge_group(per_tile[k])
        reduced.append((part, k, pixels, caption, src_ids))
    return tiling._tile_rows(reduced)


def merge_tilesets(tile_datasets, *, z_part_delta=4):
    """Union N tile Datasets (CLI order = composite priority) and
    re-composite colliding tile keys. Pure (no writes)."""

    def z_part_of(z):
        return max(z - z_part_delta, 0)

    tagged = [
        _to_merge_fragments(ds, order, z_part_of)
        for order, ds in enumerate(tile_datasets)
    ]
    unioned = tagged[0]
    for t in tagged[1:]:
        unioned = unioned.union(t)
    return unioned.groupby("part").map_groups(
        merge_part_group, batch_format="pyarrow"
    )


def diff_tilesets(a_ds, b_ds):
    """Change detection between two tile sets (D-family: the
    incremental-update primitive — "which tiles must be re-published
    after a rebuild"): returns a Dataset of
    ``(tile_key, z, x, y, status)`` with status ``added`` (in B only),
    ``removed`` (in A only) or ``changed`` (both, checksum differs);
    identical tiles are dropped. Plan: project both sides to the
    5-column key+checksum view (pixels never move), tag, union, ONE
    coarse-bucket shuffle on ``tile_key`` with the compare vectorized
    across keys inside each group — never a per-key grouped aggregate
    and no driver materialization, so both sets may be full pyramids."""
    import pandas as pd


    def project(side):
        def fn(t: pa.Table) -> pa.Table:
            cols = t.select(["tile_key", "z", "x", "y", "checksum"])
            return cols.append_column(
                "__side", pa.array([side] * len(cols), pa.int8())
            )

        return fn

    u = a_ds.map_batches(project(0), batch_format="pyarrow").union(
        b_ds.map_batches(project(1), batch_format="pyarrow")
    ).materialize()  # counted, then one bucketed shuffle
    from ..relational.dedup import _adaptive_coarse, _coarse_bucket

    n_cb = _adaptive_coarse(u.count(), per_group_target=200_000)

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        return _coarse_bucket(b, "tile_key", n_cb)

    def compare(g: pd.DataFrame) -> pa.Table:
        # nullable Int64 through the pivot (verified preserved by
        # aggfunc="first"): a plain pivot upcasts to float64, which is
        # exact only below 2^53 — fine for crc32 checksums, silently
        # lossy if the checksum ever widens to full int64, where
        # distinct values could compare equal and a "changed" tile be
        # reported "same" (ADVICE r4)
        g = g.assign(checksum=g["checksum"].astype("Int64"))
        p = g.pivot_table(
            index=["tile_key", "z", "x", "y"],
            columns="__side",
            values="checksum",
            aggfunc="first",
        ).reset_index()
        na = pd.array([pd.NA] * len(p), dtype="Int64")
        a = p[0] if 0 in p.columns else pd.Series(na, index=p.index)
        b = p[1] if 1 in p.columns else pd.Series(na, index=p.index)
        status = np.select(
            [
                a.isna().to_numpy(),
                b.isna().to_numpy(),
                (a != b).fillna(False).to_numpy(dtype=bool),
            ],
            ["added", "removed", "changed"],
            default="same",
        )
        keep = status != "same"
        out = pa.Table.from_pandas(
            p.loc[keep, ["tile_key", "z", "x", "y"]], preserve_index=False
        )
        # an Arrow block with a typed string column: an all-"same" bucket
        # returns zero rows, whose status must still be string (not null)
        # to unify with the other buckets, and an empty pandas column
        # makes Ray's block-size estimate fail on the worker
        return out.append_column("status", pa.array(status[keep], pa.string()))

    return (
        u.map_batches(bucket, batch_format="pandas")
        .groupby("__ub")
        .map_groups(compare, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# layout conversion (M9) and tree export/import (S7/S8)
# ---------------------------------------------------------------------------


def with_layout_paths(tiles_ds, layout="xyz", ext="png"):
    """Add a ``path`` column per cache layout — fully vectorized
    string codec (pyarrow ``binary_join_element_wise`` chains, no
    per-row Python; tiles_convert.py::coord2path [R]).
    :func:`tilegrid.coord_to_path` stays the scalar registry contract
    and the equivalence-test twin."""
    import pyarrow.compute as pc

    if layout not in tg.TILE_LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")

    def add_path(batch: pa.Table) -> pa.Table:
        z64 = pc.cast(batch.column("z"), pa.int64())
        x64 = pc.cast(batch.column("x"), pa.int64())
        y64 = pc.cast(batch.column("y"), pa.int64())
        zs, xs, ys = (pc.cast(c, pa.string()) for c in (z64, x64, y64))
        join = pc.binary_join_element_wise  # last arg = separator
        if layout == "xyz":
            path = join(zs, xs, join(ys, ext, "."), "/")
        elif layout == "tms":
            yf = pc.subtract(
                pc.subtract(pc.shift_left(pa.scalar(1, pa.int64()), z64), 1),
                y64,
            )
            path = join(zs, xs, join(pc.cast(yf, pa.string()), ext, "."), "/")
        elif layout == "zyx":
            path = join(zs, ys, join(xs, ext, "."), "/")
        else:  # sasplanet: z{z+1}/{x//1024}/x{x}/{y//1024}/y{y}.{ext}
            z1 = pc.cast(pc.add(z64, 1), pa.string())
            xb = pc.cast(pc.divide(x64, 1024), pa.string())  # int div
            yb = pc.cast(pc.divide(y64, 1024), pa.string())
            path = join(
                join("z", z1, ""),
                xb,
                join("x", xs, ""),
                yb,
                join("y", join(ys, ext, "."), ""),
                "/",
            )
        return batch.append_column("path", pc.cast(path, pa.string()))

    return tiles_ds.map_batches(add_path, batch_format="pyarrow")


def export_tree(
    tiles_ds,
    root,
    *,
    layout="xyz",
    fmt="png",
    skip_existing=False,
):
    """Write a real tile tree ``root/z/x/y.ext`` (+ tilemap.json
    sidecar). The writer is a side-effect map_batches stage of stateless
    tasks (no actor pool, so no concurrency to set) returning
    (z, x, y, path, n_bytes, wrote) rows; the upstream pipeline
    executes exactly ONCE — the tilemap stats are aggregated from the
    writer's own output rows, never from a re-run of the input.

    ``skip_existing=True`` is the ``--noclobber`` resume path: a tile
    whose destination file already exists is neither re-encoded nor
    rewritten (its row reports ``wrote=0``)."""

    # stateless task (NOT an actor pool): a second fixed actor pool
    # behind the shuffle can starve the executor at low CPU counts —
    # idle actors hold their CPUs while the sort they feed on waits
    ext = "png" if fmt == "png8" else fmt  # paletted PNG is still .png

    def write_tiles(batch: pa.Table) -> pa.Table:
        zs = batch.column("z").to_pylist()
        xs = batch.column("x").to_pylist()
        ys = batch.column("y").to_pylist()
        pix = batch.column("pixels").to_pylist()
        out_paths, out_sz, out_wrote = [], [], []
        for z, x, y, p in zip(zs, xs, ys, pix):
            rel = tg.coord_to_path(z, x, y, layout=layout, ext=ext)
            dest = os.path.join(root, rel)
            if skip_existing and os.path.exists(dest):
                out_paths.append(rel)
                out_sz.append(os.path.getsize(dest))
                out_wrote.append(0)
                continue
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            blob = codecs.encode_image(tiling._np_frag(p), fmt)
            tmp = dest + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, dest)
            out_paths.append(rel)
            out_sz.append(len(blob))
            out_wrote.append(1)
        return pa.table(
            {
                "z": batch.column("z"),
                "x": batch.column("x"),
                "y": batch.column("y"),
                "path": pa.array(out_paths, pa.string()),
                "n_bytes": pa.array(out_sz, pa.int64()),
                "wrote": pa.array(out_wrote, pa.int64()),
            }
        )

    os.makedirs(root, exist_ok=True)
    written = tiles_ds.map_batches(
        write_tiles, batch_format="pyarrow", batch_size=64
    ).materialize()  # single execution; rows are tiny (one per tile)
    stats = tileset_stats(written).to_pandas()
    n_written = int(written.sum("wrote") or 0)
    n = written.count()
    meta = {
        "layout": layout,
        "fmt": fmt,
        "tile_size": tg.TILE_SIZE,
        "n_tiles": int(n),
        "n_written": n_written,
        "n_skipped": int(n) - n_written,
        "zooms": {
            int(r.z): {
                "count": int(r.n_tiles),
                "x": [int(r.min_x), int(r.max_x)],
                "y": [int(r.min_y), int(r.max_y)],
            }
            for r in stats.itertuples(index=False)
        },
    }
    with open(os.path.join(root, "tilemap.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    _write_viewer_html(root, meta)
    return meta


def _write_viewer_html(root, meta):
    """Self-contained HTML tile viewer sidecar — the engine's stand-in
    for gdal_tiler's bundled map viewer (S7 [C]). No external libs:
    renders one zoom level as an absolutely-positioned tile grid with
    zoom buttons."""
    zooms = sorted(int(z) for z in meta["zooms"])
    html = f"""<!doctype html><html><head><meta charset="utf-8">
<title>tileset viewer</title>
<style>body{{margin:0;background:#223;font-family:monospace;color:#eee}}
#bar{{padding:6px}}#map{{position:relative;overflow:auto;height:95vh}}
img{{position:absolute;width:256px;height:256px;image-rendering:pixelated}}</style>
</head><body>
<div id="bar">layout={meta["layout"]} fmt={meta["fmt"]} zooms:
{"".join(f'<button onclick="show({z})">{z}</button>' for z in zooms)}
<span id="info"></span></div><div id="map"></div>
<script>
const meta = {json.dumps(meta["zooms"])};
const layout = {json.dumps(meta["layout"])}, fmt = {json.dumps(meta["fmt"])};
function path(z,x,y){{
  if(layout==="tms") y = (1<<z)-1-y;
  if(layout==="zyx") return z+"/"+y+"/"+x+"."+fmt;
  if(layout==="sasplanet") return "z"+(z+1)+"/"+Math.floor(x/1024)+"/x"+x+"/"+Math.floor(y/1024)+"/y"+y+"."+fmt;
  return z+"/"+x+"/"+y+"."+fmt;
}}
function show(z){{
  const m = meta[z], map = document.getElementById("map");
  map.innerHTML = "";
  document.getElementById("info").textContent = " z="+z+" ("+m.count+" tiles)";
  for(let x=m.x[0]; x<=m.x[1]; x++) for(let y=m.y[0]; y<=m.y[1]; y++){{
    const img = document.createElement("img");
    img.src = path(z,x,y);
    img.style.left = (x-m.x[0])*256+"px"; img.style.top = (y-m.y[0])*256+"px";
    img.onerror = () => img.remove();
    map.appendChild(img);
  }}
}}
show({zooms[-1] if zooms else 0});
</script></body></html>"""
    with open(os.path.join(root, "index.html"), "w") as f:
        f.write(html)


def read_tile_tree(root, layout="xyz"):
    """Tile-directory source: binary files + path parse → tile rows
    (tile_key, z, x, y, tile_bytes, fmt). Any registered layout."""
    import ray.data as rd

    ds = rd.read_binary_files(
        root, include_paths=True, file_extensions=["png", "raw", "dct", "ozf"]
    )
    rootp = os.path.abspath(root)

    def parse(batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        zs, xs, ys, keys, fmts = [], [], [], [], []
        for p in paths:
            rel = os.path.relpath(os.path.abspath(p), rootp)
            z, x, y = tg.path_to_coord(rel, layout=layout)
            zs.append(z)
            xs.append(x)
            ys.append(y)
            keys.append(int(tg.pack_key(z, x, y)))
        for b in blobs:
            fmts.append(
                "raw"
                if b[:4] == b"RAW1"
                else "dct"
                if b[:4] == b"DCT1"
                else "ozf"
                if b[:4] == b"OZF4"
                else "png"
            )
        return pa.table(
            {
                "tile_key": pa.array(keys, pa.int64()),
                "z": pa.array(zs, pa.int8()),
                "x": pa.array(xs, pa.int32()),
                "y": pa.array(ys, pa.int32()),
                "tile_bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array(fmts, pa.string()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def decode_tree_tiles(tree_ds):
    """tile_bytes → packed ``pixels`` column (M1 over a tile tree).
    Stateless tasks — codec tables are module-level constants."""

    def decode(batch: pa.Table) -> pa.Table:
        pix = [
            tiling.pack_pixels(codecs.decode_image(b))
            for b in batch.column("tile_bytes").to_pylist()
        ]
        return batch.append_column("pixels", pa.array(pix, pa.binary()))

    return tree_ds.map_batches(decode, batch_format="pyarrow", batch_size=64)


def tile_bounds_table(tiles_ds):
    """raster→vector: add each tile's mercator bounds (minx, miny,
    maxx, maxy) as columns — the vector footprint of the raster grid
    (used for coverage reports and joins back onto polygon tables)."""

    def bounds(batch: pa.Table) -> pa.Table:
        z = batch.column("z").to_numpy().astype(np.int64)
        x = batch.column("x").to_numpy().astype(np.int64)
        y = batch.column("y").to_numpy().astype(np.int64)
        res = 2.0 * tg.ORIGIN / (tg.TILE_SIZE * np.exp2(z.astype(np.float64)))
        minx = x * tg.TILE_SIZE * res - tg.ORIGIN
        maxx = (x + 1) * tg.TILE_SIZE * res - tg.ORIGIN
        maxy = tg.ORIGIN - y * tg.TILE_SIZE * res
        miny = tg.ORIGIN - (y + 1) * tg.TILE_SIZE * res
        for name, arr in (
            ("minx", minx),
            ("miny", miny),
            ("maxx", maxx),
            ("maxy", maxy),
        ):
            batch = batch.append_column(name, pa.array(arr, pa.float64()))
        return batch

    return tiles_ds.map_batches(bounds, batch_format="pyarrow")


def filter_zoom(tiles_ds, zoom_spec):
    """M8: ``--zoom=8:12,15``-style selection, vectorized per batch."""
    zooms = np.array(tg.parse_zoom_spec(zoom_spec), dtype=np.int64)

    def keep(batch: pa.Table) -> pa.Table:
        z = batch.column("z").to_numpy().astype(np.int64)
        return batch.filter(pa.array(np.isin(z, zooms)))

    return tiles_ds.map_batches(keep, batch_format="pyarrow")


def distinct_zooms(tiles_ds):
    """D4: the zoom levels present (small distinct shuffle)."""
    return sorted(tiles_ds.unique("z"))


def transcode_tiles(tree_ds, to_fmt):
    """tiles_convert's format re-encode: tile_bytes → ``to_fmt``.
    Stateless per-row codec tasks (M1+M2)."""

    def transcode(batch: pa.Table) -> pa.Table:
        blobs = [
            codecs.encode_image(codecs.decode_image(b), to_fmt)
            for b in batch.column("tile_bytes").to_pylist()
        ]
        batch = batch.drop_columns(["tile_bytes", "fmt"])
        batch = batch.append_column("tile_bytes", pa.array(blobs, pa.binary()))
        return batch.append_column(
            "fmt", pa.array([to_fmt] * batch.num_rows, pa.string())
        )

    return tree_ds.map_batches(transcode, batch_format="pyarrow", batch_size=64)


PIXEL_FNS = {
    # map-algebra registry: RGBA (h, w, 4) uint8 → same shape. Alpha
    # passes through (the composite/cutline mask must survive).
    "invert": lambda px: np.concatenate(
        [255 - px[:, :, :3], px[:, :, 3:]], axis=2
    ),
    "grayscale": lambda px: np.concatenate(
        [
            np.repeat(
                np.clip(
                    np.round(
                        0.299 * px[:, :, 0]
                        + 0.587 * px[:, :, 1]
                        + 0.114 * px[:, :, 2]
                    ),
                    0,
                    255,
                ).astype(np.uint8)[:, :, None],
                3,
                axis=2,
            ),
            px[:, :, 3:],
        ],
        axis=2,
    ),
}


def map_tiles(tiles_ds, pixel_fn):
    """Map algebra over a tile set: apply a registered per-pixel
    transform (``PIXEL_FNS``) to every tile — decode the packed RGBA,
    one vectorized numpy kernel, repack, recompute the checksum.
    Stateless tasks, no shuffle; the classic band-math step
    (NDVI-style) expressed over the engine's RGBA tiles."""
    from .. import raster as _raster

    fn = PIXEL_FNS[pixel_fn] if isinstance(pixel_fn, str) else pixel_fn

    def apply(batch: pa.Table) -> pa.Table:
        pix_in = batch.column("pixels").to_pylist()
        out_pix, out_ck = [], []
        for buf in pix_in:
            px = fn(tiling.unpack_pixels(buf))
            out_pix.append(tiling.pack_pixels(px))
            out_ck.append(_raster.tile_checksum(px))
        i_p = batch.schema.get_field_index("pixels")
        batch = batch.set_column(i_p, "pixels", pa.array(out_pix, pa.binary()))
        i_c = batch.schema.get_field_index("checksum")
        return batch.set_column(
            i_c, "checksum", pa.array(out_ck, pa.int64())
        )

    return tiles_ds.map_batches(apply, batch_format="pyarrow", batch_size=64)


def tileset_stats(tiles_ds):
    """A3: per-zoom tile count + x/y extent aggregate (one small
    shuffle over tiny grouped rows)."""
    from ray.data.aggregate import Count, Max, Min

    return tiles_ds.groupby("z").aggregate(
        Count(alias_name="n_tiles"),
        Min("x", alias_name="min_x"),
        Max("x", alias_name="max_x"),
        Min("y", alias_name="min_y"),
        Max("y", alias_name="max_y"),
    )
