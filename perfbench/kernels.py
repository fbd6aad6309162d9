"""Single-core kernel rates (no Ray), on the run's own images and tiles.

Each kernel runs under a span whose attrs carry the amount of work
(``amount`` in ``unit``); :func:`trace.per_layer_metrics` turns that into
a rate. Inputs: the corpus images (decoded once up front) and the
committed tiles of the run's fresh pyramid.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import checks

TILE_MB = 256 * 256 * 4 / 1e6
#: images warped per warp kernel (bilinear costs ~9× nearest)
N_WARP = 24
N_WARP_BILINEAR = 6
#: overview parents per downsample kernel
N_BOX = 24
N_LANCZOS = 6


def _span(tracer, name, amount, unit_name, unit):
    return tracer.span(f"kernel.{name}", amount=amount, unit_name=unit_name, unit=unit)


def run_kernels(tracer, table, levels, z_base, z_min, scratch):
    """Time every kernel; returns check errors (the Lanczos filter is
    compared with the re-implementation in checks.py)."""
    from tilers_tools_ray import codecs, raster
    from tilers_tools_ray import tilegrid as tg
    from tilers_tools_ray.stages import tiling
    from tilers_tools_ray.state import lineage

    fmts = table.column("fmt").to_pylist()
    blobs = table.column("bytes").to_pylist()
    ws, hs = table.column("w").to_pylist(), table.column("h").to_pylist()

    # --- decode, per format ---------------------------------------------
    pixels = [None] * len(blobs)
    for fmt in ("raw", "png", "dct", "ozf"):
        idx = [i for i, f in enumerate(fmts) if f == fmt]
        mpix = sum(ws[i] * hs[i] for i in idx) / 1e6
        with _span(tracer, f"decode_{fmt}", mpix, "mpix_s", "Mpix/s"):
            for i in idx:
                pixels[i] = codecs.decode_image(blobs[i], fmt)

    # --- whole-image warp to the base zoom --------------------------------
    gts = table.column("gt").to_pylist()
    srs = table.column("srs").to_pylist()
    cuts = [raster.parse_wkb_polygon(b) for b in table.column("cutline_wkb").to_pylist()]

    def warp(name, n, resampling, with_cut):
        sel = range(min(n, len(pixels)))
        windows = [raster.dest_pixel_window(np.asarray(gts[i]), ws[i], hs[i], srs[i], z_base)
                   for i in sel]
        mpix = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in windows) / 1e6
        with _span(tracer, name, mpix, "mpix_s", "Mpix/s"):
            for i in sel:
                raster.warp_image_to_base(
                    pixels[i], np.asarray(gts[i]), srs[i],
                    cuts[i] if with_cut else None, z_base, resampling,
                )

    warp("warp_nearest", N_WARP, "nearest", True)
    warp("warp_nearest_nocut", N_WARP, "nearest", False)
    warp("warp_bilinear", N_WARP_BILINEAR, "bilinear", True)

    # --- in-flight pixel codec and checksum, on committed base tiles ------
    base = levels[z_base]
    packed = base.column("pixels").to_pylist()
    with _span(tracer, "unpack", len(packed) * TILE_MB, "mb_s", "MB/s"):
        tiles = [tiling.unpack_pixels(b) for b in packed]
    with _span(tracer, "pack", len(tiles) * TILE_MB, "mb_s", "MB/s"):
        for t in tiles:
            tiling.pack_pixels(t)
    with _span(tracer, "checksum", len(tiles) * TILE_MB, "mb_s", "MB/s"):
        for t in tiles:
            raster.tile_checksum(t)

    # --- composite: each base tile painted over its predecessor -----------
    with _span(tracer, "composite", len(tiles) - 1, "tiles_s", "tiles/s"):
        for a, b in zip(tiles, tiles[1:]):
            raster.composite_fragments([a, b])

    # --- overview downsample, box and lanczos ------------------------------
    parents = sorted({(x >> 1, y >> 1) for x, y in zip(base.column("x").to_pylist(),
                                                       base.column("y").to_pylist())})
    kids = [checks.children_of(levels, z_base - 1, x, y) for x, y in parents[:N_BOX]]
    with _span(tracer, "downsample_box", len(kids), "tiles_s", "tiles/s"):
        for ch in kids:
            raster.downsample_children(ch, "box")
    errs = []
    with _span(tracer, "downsample_lanczos", min(N_LANCZOS, len(kids)), "tiles_s", "tiles/s"):
        lanczos = [raster.downsample_children(ch, "lanczos") for ch in kids[:N_LANCZOS]]
    for (x, y), ch, got in zip(parents, kids, lanczos):
        diff = np.abs(got.astype(np.int16) - checks.lanczos_parent(ch).astype(np.int16)).max()
        if diff > 1:
            errs.append(f"lanczos parent of z={z_base - 1} x={x} y={y} off by {diff}")

    # --- the overview cascade of one anchor cell, per anchor cell ----------
    anchor = max(z_min, z_base - 6)
    shift = z_base - anchor
    xs = np.asarray(base.column("x").to_pylist()) >> shift
    ys = np.asarray(base.column("y").to_pylist()) >> shift
    part = tg.pack_key(np.full_like(xs, anchor), xs, ys)
    tbl = base.drop_columns(["part"]).append_column("part", pa.array(part, pa.int64()))
    groups = [tbl.filter(pa.array(part == p)) for p in np.unique(part)]
    with _span(tracer, "cascade", base.num_rows, "tiles_s", "tiles/s"):
        for g in groups:
            tiling.cascade_part_group(g, anchor, z_base, "box")

    # --- per-part commit (parquet + manifest) -------------------------------
    parts = np.asarray(base.column("part").to_pylist())
    by_part = [(int(p), base.filter(pa.array(parts == p))) for p in np.unique(parts)]
    out = os.path.join(scratch, "commit")
    with _span(tracer, "commit", len(by_part), "parts_s", "parts/s"):
        for p, t in by_part:
            lineage.commit_part(out, z_base, p, t, {"z": z_base, "part": p,
                                                    "n_tiles": t.num_rows})
    return errs
