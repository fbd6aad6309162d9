"""Shared raster kernels: warp-cut, composite, 2×2 downsample.

These pixel kernels are the single source of truth for BOTH the
single-process golden tiler (``golden.py``) and the distributed Ray
stages (``stages/``): the conformance claim "engine matches golden
byte-for-byte" is about orchestration (fan-out, shuffle, salting,
resume), while the per-pixel math lives here once.

Reimplements, from public semantics:
  - gdal_tiler.py's per-tile warp window: inverse-map each dest tile's
    256×256 pixel grid through (mercator ← profile) ∘ (world ← source
    pixel affine), sample the source, alpha-mask by the cutline [C].
  - tiles_merge.py's paste-with-mask alpha composite [C].
  - gdal_tiler.py's overview build: parent tile = 2×2 box-downsample of
    its ≤4 children [C].

WKB polygon encode/decode for the ``cutline_wkb`` column lives here too
(plain ISO WKB, little-endian, Polygon type 3, single ring).
"""

from __future__ import annotations

import struct

import numpy as np

from . import codecs
from . import geometry as geo
from . import proj
from . import tilegrid as tg

TILE = tg.TILE_SIZE

# ---------------------------------------------------------------------------
# WKB polygon (single exterior ring)
# ---------------------------------------------------------------------------


def wkb_polygon(ring):
    ring = np.asarray(ring, dtype=np.float64)
    n = len(ring)
    closed = np.vstack([ring, ring[:1]])
    head = struct.pack("<BII", 1, 3, 1) + struct.pack("<I", n + 1)
    return head + closed.astype("<f8").tobytes()


def parse_wkb_polygon(data):
    byte_order, geom_type, nrings = struct.unpack("<BII", data[:9])
    assert byte_order == 1 and geom_type == 3 and nrings >= 1
    (npts,) = struct.unpack("<I", data[9:13])
    ring = np.frombuffer(data, dtype="<f8", offset=13, count=npts * 2).reshape(
        npts, 2
    )
    return ring[:-1].copy()  # drop closure


# ---------------------------------------------------------------------------
# source georeferencing → mercator
# ---------------------------------------------------------------------------

_DEG_TO_MERC_X = tg.ORIGIN / 180.0

#: the axis-SEPARABLE SRS values (1-D broadcast warp path). UTM /
#: transverse-Mercator sources are additionally accepted via proj.py's
#: Tmerc kernel (2-D grid path). The reference accepts any proj4 SRS
#: by delegating to GDAL; anything this engine doesn't implement must
#: fail loudly instead of being silently treated as mercator meters.
SUPPORTED_SRS = ("EPSG:3857", "EPSG:900913", "EPSG:4326")


def _tmerc_of(srs):
    """Tmerc descriptor for UTM/tmerc SRS strings, else None.
    (parse_srs raises on recognizably-tmerc-but-malformed input.)"""
    if srs in SUPPORTED_SRS or srs == "PIXEL":
        return None
    return proj.parse_srs(srs)


def check_srs(srs):
    if srs not in SUPPORTED_SRS and _tmerc_of(srs) is None:
        raise ValueError(
            f"unsupported srs {srs!r}: this engine implements "
            f"{SUPPORTED_SRS} plus UTM/transverse-Mercator "
            "(EPSG:326xx/327xx, +proj=utm, +proj=tmerc) and the "
            "lcc/aea conics (+proj=lcc, +proj=aea, EPSG 2154/3978/"
            "5070) only (the reference delegates arbitrary SRS to "
            "GDAL; add a projection kernel to extend)"
        )
    return srs


def _to_profile_units(wx, wy, srs, profile):
    """Source-SRS world coords → dest-profile units (merc meters for
    the mercator profile, degrees for geodetic, canvas pixels for a
    RasterGrid)."""
    if isinstance(profile, tg.RasterGrid):
        if srs != "PIXEL":
            raise ValueError(
                f"raster profile requires srs='PIXEL' sources, got {srs!r}"
            )
        return wx, wy
    check_srs(srs)
    tm = _tmerc_of(srs)
    if tm is not None:
        lon, lat = tm.inverse(wx, wy)
        if profile == "geodetic":
            return lon, lat
        return tg.lonlat_to_merc(lon, lat)
    if profile == "geodetic":
        if srs == "EPSG:4326":
            return wx, wy
        return tg.merc_to_lonlat(wx, wy)
    if srs == "EPSG:4326":
        return tg.lonlat_to_merc(wx, wy)
    return wx, wy


def source_to_merc_corners(gt, w, h, srs):
    """Source image corner pixels → mercator coords (4×2 array)."""
    check_srs(srs)
    px = np.array([0.0, w, w, 0.0])
    py = np.array([0.0, 0.0, h, h])
    wx, wy = geo.apply_gt(np.asarray(gt, dtype=np.float64), px, py)
    tm = _tmerc_of(srs)
    if tm is not None:
        wx, wy = tg.lonlat_to_merc(*tm.inverse(wx, wy))
    elif srs == "EPSG:4326":
        wx, wy = tg.lonlat_to_merc(wx, wy)
    return np.stack([wx, wy], axis=1)


def footprint_bbox_merc(gt, w, h, srs):
    c = source_to_merc_corners(gt, w, h, srs)
    return c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max()


def _edge_samples(w, h, n=17):
    """Pixel-border samples (n per edge) — curved-edge footprints."""
    t = np.linspace(0.0, 1.0, n)
    px = np.concatenate([t * w, np.full(n, float(w)), (1 - t) * w, np.zeros(n)])
    py = np.concatenate([np.zeros(n), t * h, np.full(n, float(h)), (1 - t) * h])
    return px, py


def footprint_bbox_profile(gt, w, h, srs, profile="mercator", poly=None):
    """Footprint bbox in dest-profile units (meters or degrees).
    Corners are exact for affine+separable sources; tmerc and
    GCP-warped (polynomial/TPS) sources map straight edges to curves, so
    their edges are sampled densely (the mid-edge bulge would
    otherwise clip footprint tiles)."""
    if poly is not None:
        px, py = _edge_samples(w, h)
        wx, wy = geo.apply_gcp_fwd(poly, px, py)
    else:
        if _tmerc_of(srs) is not None:
            px, py = _edge_samples(w, h)
        else:
            px = np.array([0.0, w, w, 0.0])
            py = np.array([0.0, 0.0, h, h])
        wx, wy = geo.apply_gt(np.asarray(gt, dtype=np.float64), px, py)
    wx, wy = _to_profile_units(wx, wy, srs, profile)
    return wx.min(), wy.min(), wx.max(), wy.max()


def base_tiles_for_image(gt, w, h, srs, z, profile="mercator", poly=None):
    """Tiles at zoom z intersecting the image footprint bbox, in the
    dest profile's grid."""
    bb = footprint_bbox_profile(gt, w, h, srs, profile, poly=poly)
    if isinstance(profile, tg.RasterGrid):
        return profile.tiles_overlapping_bbox(*bb, z)
    if profile == "geodetic":
        return tg.tiles_overlapping_bbox_geodetic(*bb, z)
    return tg.tiles_overlapping_bbox(*bb, z)


# ---------------------------------------------------------------------------
# warp-cut: one dest tile from one source image
# ---------------------------------------------------------------------------


def _source_coords(gt, srs, z, gx, gy, profile="mercator", poly=None):
    """Dest global-pixel indices (1-D cols ``gx``, 1-D rows ``gy``) →
    source pixel coords (2-D spx, spy) via separable broadcast: both
    profile→source-SRS conversions (mercator↔lonlat) are axis-
    separable and the affine is linear, so no full meshgrid is ever
    materialized.

    The 1-D terms are computed in float64 in the CANCELLATION-FREE
    form spx = inv1·(wx−gt0) + inv2·(wy−gt3) (world coords translated
    to the image origin before scaling — the raw ORIGIN-magnitude
    terms would lose ~3 decimal digits), then the 2-D broadcast adds
    run in float32: source-pixel magnitudes are ≤ a few thousand, so
    float32 keeps ~2·10⁻⁴ px — far below the half-pixel that could
    flip a nearest-neighbor sample — at HALF the memory bandwidth of
    the biggest arrays in the pipeline."""
    if poly is not None:
        if isinstance(profile, tg.RasterGrid):
            raise ValueError("polynomial GCP warp unsupported for raster profile")
        return _source_coords_poly(poly, srs, z, gx, gy, profile)
    tm = _tmerc_of(srs)
    if tm is not None:
        if isinstance(profile, tg.RasterGrid):
            raise ValueError(
                f"raster profile requires srs='PIXEL' sources, got {srs!r}"
            )
        return _source_coords_tmerc(gt, tm, z, gx, gy, profile)
    if isinstance(profile, tg.RasterGrid):
        if srs != "PIXEL":
            raise ValueError(
                f"raster profile requires srs='PIXEL' sources, got {srs!r}"
            )
        res = profile.resolution(z)
        wx = (np.asarray(gx, dtype=np.float64) + 0.5) * res  # canvas px
        wy = (np.asarray(gy, dtype=np.float64) + 0.5) * res  # y DOWN
    elif profile == "geodetic":
        check_srs(srs)
        res = tg.geodetic_resolution(z)
        lon = (np.asarray(gx, dtype=np.float64) + 0.5) * res - 180.0
        lat = 90.0 - (np.asarray(gy, dtype=np.float64) + 0.5) * res
        if srs == "EPSG:4326":
            wx, wy = lon, lat
        else:
            wx, wy = tg.lonlat_to_merc(lon, lat)
    else:
        check_srs(srs)
        n = 1 << int(z)
        res = 2.0 * tg.ORIGIN / (TILE * n)
        mx = (np.asarray(gx, dtype=np.float64) + 0.5) * res - tg.ORIGIN
        my = tg.ORIGIN - (np.asarray(gy, dtype=np.float64) + 0.5) * res
        if srs == "EPSG:4326":
            wx = np.degrees(mx / tg.EARTH_RADIUS)
            wy = np.degrees(
                2.0 * np.arctan(np.exp(my / tg.EARTH_RADIUS)) - np.pi / 2.0
            )
        else:
            wx, wy = mx, my
    gt = np.asarray(gt, dtype=np.float64)
    inv = geo.invert_gt(gt)
    dx = wx - gt[0]
    dy = wy - gt[3]
    col_x = (inv[1] * dx).astype(np.float32)
    row_x = (inv[2] * dy).astype(np.float32)
    col_y = (inv[4] * dx).astype(np.float32)
    row_y = (inv[5] * dy).astype(np.float32)
    spx = row_x[:, None] + col_x[None, :]
    spy = row_y[:, None] + col_y[None, :]
    return spx, spy


def _source_coords_tmerc(gt, tm, z, gx, gy, profile):
    """Dest global-pixel indices → source pixels for a UTM/tmerc
    source. The mapping is NOT axis-separable (easting depends on both
    lon and lat), so the full 2-D grid is projected — in row chunks to
    bound the ~10 float64 temporaries the series needs (a whole-image
    warp window can be thousands of pixels on a side)."""
    if profile == "geodetic":
        res = tg.geodetic_resolution(z)
        lon = (np.asarray(gx, dtype=np.float64) + 0.5) * res - 180.0
        lat = 90.0 - (np.asarray(gy, dtype=np.float64) + 0.5) * res
    else:
        n = 1 << int(z)
        res = 2.0 * tg.ORIGIN / (TILE * n)
        mx = (np.asarray(gx, dtype=np.float64) + 0.5) * res - tg.ORIGIN
        my = tg.ORIGIN - (np.asarray(gy, dtype=np.float64) + 0.5) * res
        lon = np.degrees(mx / tg.EARTH_RADIUS)
        lat = np.degrees(2.0 * np.arctan(np.exp(my / tg.EARTH_RADIUS)) - np.pi / 2.0)
    gt = np.asarray(gt, dtype=np.float64)
    inv = geo.invert_gt(gt)
    ny, nx = len(lat), len(lon)
    spx = np.empty((ny, nx), dtype=np.float32)
    spy = np.empty((ny, nx), dtype=np.float32)
    step = max(1, 2_000_000 // max(nx, 1))  # ~16 MB of f64 per temp
    for r0 in range(0, ny, step):
        r1 = min(ny, r0 + step)
        wx, wy = tm.forward(
            np.broadcast_to(lon[None, :], (r1 - r0, nx)),
            np.broadcast_to(lat[r0:r1, None], (r1 - r0, nx)),
        )
        dx = wx - gt[0]
        dy = wy - gt[3]
        spx[r0:r1] = inv[1] * dx + inv[2] * dy
        spy[r0:r1] = inv[4] * dx + inv[5] * dy
    return spx, spy


def _source_coords_poly(poly, srs, z, gx, gy, profile):
    """Dest global-pixel indices → source pixels through a GCP warp
    record (order-2/3 polynomial or TPS — geometry.solve_poly /
    solve_tps). The cross terms make the mapping non-axis-separable,
    so the full 2-D grid is evaluated in row chunks (same memory bound as the tmerc path). The
    polynomial's world side is in SOURCE-SRS units, so the dest grid
    is first converted per srs (lonlat / merc / tmerc-forward)."""
    check_srs(srs)
    if profile == "geodetic":
        res = tg.geodetic_resolution(z)
        lon = (np.asarray(gx, dtype=np.float64) + 0.5) * res - 180.0
        lat = 90.0 - (np.asarray(gy, dtype=np.float64) + 0.5) * res
        if srs in ("EPSG:3857", "EPSG:900913"):
            u1, v1 = tg.lonlat_to_merc(lon, lat)  # axis-separable kernel
        else:
            u1, v1 = lon, lat
    else:
        n = 1 << int(z)
        res = 2.0 * tg.ORIGIN / (TILE * n)
        mx = (np.asarray(gx, dtype=np.float64) + 0.5) * res - tg.ORIGIN
        my = tg.ORIGIN - (np.asarray(gy, dtype=np.float64) + 0.5) * res
        if srs in ("EPSG:3857", "EPSG:900913"):
            u1, v1 = mx, my
        else:
            u1 = np.degrees(mx / tg.EARTH_RADIUS)
            v1 = np.degrees(
                2.0 * np.arctan(np.exp(my / tg.EARTH_RADIUS)) - np.pi / 2.0
            )
    tm = _tmerc_of(srs)
    poly = np.asarray(poly, dtype=np.float64)
    ny, nx = len(v1), len(u1)
    spx = np.empty((ny, nx), dtype=np.float32)
    spy = np.empty((ny, nx), dtype=np.float32)
    step = max(1, 2_000_000 // max(nx, 1))
    for r0 in range(0, ny, step):
        r1 = min(ny, r0 + step)
        wx = np.broadcast_to(u1[None, :], (r1 - r0, nx))
        wy = np.broadcast_to(v1[r0:r1, None], (r1 - r0, nx))
        if tm is not None:  # grid is lonlat here; poly world is tmerc meters
            wx, wy = tm.forward(wx, wy)
        px, py = geo.apply_gcp_inv(poly, wx, wy)
        spx[r0:r1] = px
        spy[r0:r1] = py
    return spx, spy


def _sample(pixels, spx, spy, resampling):
    """Sample source RGBA at (spx, spy); returns (rgba, inb mask)."""
    h, w = pixels.shape[:2]
    out_shape = spx.shape
    if resampling == "nearest":
        ix = np.floor(spx).astype(np.int32)
        iy = np.floor(spy).astype(np.int32)
        inb = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        out = pixels[np.clip(iy, 0, h - 1), np.clip(ix, 0, w - 1)]
        # zero only the out-of-bounds pixels (scatter ∝ edge band) —
        # cheaper than a full 4-channel mask multiply when most of the
        # window is in-bounds (the common footprint-window case)
        out[~inb] = 0
        return out, inb
    if resampling == "bilinear":
        fx = spx - 0.5
        fy = spy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        ax = fx - x0
        ay = fy - y0
        inb = (x0 >= -1) & (x0 < w) & (y0 >= -1) & (y0 < h)
        x0c = np.clip(x0, 0, w - 1)
        x1c = np.clip(x0 + 1, 0, w - 1)
        y0c = np.clip(y0, 0, h - 1)
        y1c = np.clip(y0 + 1, 0, h - 1)
        p = pixels.astype(np.float64)
        top = p[y0c, x0c] * (1 - ax)[..., None] + p[y0c, x1c] * ax[..., None]
        bot = p[y1c, x0c] * (1 - ax)[..., None] + p[y1c, x1c] * ax[..., None]
        val = top * (1 - ay)[..., None] + bot * ay[..., None]
        out = np.zeros(out_shape + (4,), dtype=np.uint8)
        out[inb] = np.clip(np.round(val[inb]), 0, 255).astype(np.uint8)
        return out, inb
    if resampling == "bicubic":
        # Catmull-Rom (a = -0.5), the classic GDAL/PIL cubic kernel
        fx = spx - 0.5
        fy = spy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        tx = fx - x0
        ty = fy - y0
        inb = (x0 >= -1) & (x0 < w) & (y0 >= -1) & (y0 < h)

        def cubic_w(t):
            a = -0.5
            t = np.abs(t)
            w1 = (a + 2) * t**3 - (a + 3) * t**2 + 1
            w2 = a * t**3 - 5 * a * t**2 + 8 * a * t - 4 * a
            return np.where(t <= 1, w1, np.where(t < 2, w2, 0.0))

        p = pixels.astype(np.float64)
        acc = np.zeros(out_shape + (4,), dtype=np.float64)
        for dy in (-1, 0, 1, 2):
            wy = cubic_w(ty - dy)
            yc = np.clip(y0 + dy, 0, h - 1)
            row = np.zeros(out_shape + (4,), dtype=np.float64)
            for dx in (-1, 0, 1, 2):
                wx = cubic_w(tx - dx)
                xc = np.clip(x0 + dx, 0, w - 1)
                row += p[yc, xc] * wx[..., None]
            acc += row * wy[..., None]
        out = np.zeros(out_shape + (4,), dtype=np.uint8)
        out[inb] = np.clip(np.round(acc[inb]), 0, 255).astype(np.uint8)
        return out, inb
    if resampling == "lanczos":
        # Lanczos-3 (6×6 support), weight-normalized like GDAL's kernel
        a = 3
        fx = spx - 0.5
        fy = spy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        tx = fx - x0
        ty = fy - y0
        inb = (x0 >= -1) & (x0 < w) & (y0 >= -1) & (y0 < h)

        def lanczos_w(t):
            t = np.abs(t)
            with np.errstate(invalid="ignore", divide="ignore"):
                v = np.sinc(t) * np.sinc(t / a)
            return np.where(t < a, v, 0.0)

        p = pixels.astype(np.float64)
        acc = np.zeros(out_shape + (4,), dtype=np.float64)
        wsum = np.zeros(out_shape, dtype=np.float64)
        for dy in range(-a + 1, a + 1):
            wy = lanczos_w(ty - dy)
            yc = np.clip(y0 + dy, 0, h - 1)
            for dx in range(-a + 1, a + 1):
                wxy = lanczos_w(tx - dx) * wy
                xc = np.clip(x0 + dx, 0, w - 1)
                acc += p[yc, xc] * wxy[..., None]
                wsum += wxy
        acc /= np.where(wsum == 0.0, 1.0, wsum)[..., None]
        out = np.zeros(out_shape + (4,), dtype=np.uint8)
        out[inb] = np.clip(np.round(acc[inb]), 0, 255).astype(np.uint8)
        return out, inb
    raise ValueError(f"unknown resampling {resampling!r}")


def _is_full_frame(ring, w, h):
    """True when the cutline is exactly the full image frame — then the
    even-odd PIP over the rect equals the in-bounds test and can be
    skipped entirely (70% of sources in the corpus; the common real
    case of charts without a neatline)."""
    if ring is None:
        return True
    r = np.asarray(ring, dtype=np.float64)
    if r.shape != (4, 2):
        return False
    expect = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
    return bool(np.array_equal(r, expect))


def _apply_mask(frag, spx, spy, cutline, inb, w, h):
    if _is_full_frame(cutline, w, h):
        return frag  # nearest _sample already zeroed out-of-bounds
    # evaluate the PIP only at in-bounds pixels (the rest are zero)
    flat_inb = inb.ravel()
    idx = np.flatnonzero(flat_inb)
    keep = np.zeros(flat_inb.shape, dtype=bool)
    if len(idx):
        keep[idx] = geo.point_in_polygon(
            spx.ravel()[idx], spy.ravel()[idx], cutline
        )
    frag *= keep.reshape(spx.shape)[..., None].astype(np.uint8)
    return frag


def cut_fragment(pixels, gt, srs, cutline, z, x, y, resampling="nearest",
                 profile="mercator", poly=None):
    """Render source ``pixels`` (H×W×4 RGBA) into dest tile (z, x, y).

    Returns a 256×256×4 uint8 RGBA fragment (alpha 0 where the tile is
    not covered / outside the cutline), or None when fully transparent.

    ``cutline`` is an (n, 2) ring in SOURCE PIXEL coords or None
    (full frame). Resampling: 'nearest' (default, matches the
    reference's default base resampling [C]) or 'bilinear'.
    """
    h, w = pixels.shape[:2]
    gx = x * TILE + np.arange(TILE, dtype=np.float64)
    gy = y * TILE + np.arange(TILE, dtype=np.float64)
    spx, spy = _source_coords(gt, srs, z, gx, gy, profile, poly=poly)
    frag, inb = _sample(pixels, spx, spy, resampling)
    frag = _apply_mask(frag, spx, spy, cutline, inb, w, h)
    if not frag[:, :, 3].any():
        return None
    return frag


def dest_pixel_window(gt, w, h, srs, z, margin=2, profile="mercator", poly=None):
    """Global dest-pixel bbox [gx0, gx1) × [gy0, gy1) that bounds the
    image footprint at zoom z, from 65-point sampling of each source
    edge (+``margin`` px). Exact for affine sources (corners bound the
    parallelogram); the sampling covers the mild edge curvature of
    cross-SRS and polynomial-GCP sources."""
    edge_px, edge_py = _edge_samples(w, h, 65)
    if poly is not None:
        wx, wy = geo.apply_gcp_fwd(poly, edge_px, edge_py)
    else:
        wx, wy = geo.apply_gt(np.asarray(gt, dtype=np.float64), edge_px, edge_py)
    wx, wy = _to_profile_units(wx, wy, srs, profile)
    if isinstance(profile, tg.RasterGrid):
        res = profile.resolution(z)
        dpx, dpy = wx / res, wy / res  # y down already
        nx, ny = profile.dims(z)
        world_x, world_y = TILE * nx, TILE * ny
    elif profile == "geodetic":
        dpx, dpy = tg.lonlat_to_pixel_geodetic(wx, wy, z)
        nx, ny = tg.grid_dims("geodetic", z)
        world_x, world_y = TILE * nx, TILE * ny
    else:
        dpx, dpy = tg.merc_to_pixel(wx, wy, z)
        world_x = world_y = TILE * (1 << int(z))
    gx0 = int(np.clip(np.floor(dpx.min()) - margin, 0, world_x))
    gx1 = int(np.clip(np.ceil(dpx.max()) + margin, 0, world_x))
    gy0 = int(np.clip(np.floor(dpy.min()) - margin, 0, world_y))
    gy1 = int(np.clip(np.ceil(dpy.max()) + margin, 0, world_y))
    return gx0, gx1, gy0, gy1


def warp_image_to_base(pixels, gt, srs, cutline, z, resampling="nearest",
                       profile="mercator", poly=None):
    """Warp the WHOLE image once into its dest-pixel window at zoom z
    (gdal_tiler's strategy: warp per map, window per tile [C]).

    Returns (gx0, gy0, warped): ``warped`` covers global dest pixels
    [gx0, gx0+W) × [gy0, gy0+H) — the tight footprint window, NOT the
    tile-aligned bbox (tiles only partially covered are zero-padded at
    slice time). One coordinate transform per image, sized to the
    pixels the image can actually touch."""
    h, w = pixels.shape[:2]
    gx0, gx1, gy0, gy1 = dest_pixel_window(
        gt, w, h, srs, z, profile=profile, poly=poly
    )
    if gx1 <= gx0 or gy1 <= gy0:
        return gx0, gy0, np.zeros((0, 0, 4), dtype=np.uint8)
    gx = np.arange(gx0, gx1, dtype=np.float64)
    gy = np.arange(gy0, gy1, dtype=np.float64)
    spx, spy = _source_coords(gt, srs, z, gx, gy, profile, poly=poly)
    warped, inb = _sample(pixels, spx, spy, resampling)
    warped = _apply_mask(warped, spx, spy, cutline, inb, w, h)
    return gx0, gy0, warped


# ---------------------------------------------------------------------------
# composite (alpha-over, tiles_merge paste-with-mask)
# ---------------------------------------------------------------------------


def composite_over(dst, src):
    """Porter–Duff OVER: paint ``src`` onto ``dst`` (both H×W×4 uint8,
    straight alpha). In-place on dst; deterministic integer-free float
    math with final round."""
    sa = src[:, :, 3].astype(np.float64) / 255.0
    da = dst[:, :, 3].astype(np.float64) / 255.0
    oa = sa + da * (1.0 - sa)
    safe = np.where(oa == 0.0, 1.0, oa)
    for c in range(3):
        num = src[:, :, c] * sa + dst[:, :, c] * da * (1.0 - sa)
        dst[:, :, c] = np.clip(np.round(num / safe), 0, 255).astype(np.uint8)
    dst[:, :, 3] = np.clip(np.round(oa * 255.0), 0, 255).astype(np.uint8)
    return dst


def composite_fragments(frags):
    """Composite fragments (list of H×W×4 uint8, ALREADY sorted by
    ascending z-order) — later entries paint over earlier ones.
    Matches tiles_merge CLI-order semantics [C].

    Fast path: when the source alpha is binary (0/255 — always true
    for cutline-masked nearest-sampled fragments), OVER degenerates to
    a mask copy, which is both ~10× faster and exactly associative
    (the salting invariant, SURVEY.md §7.6)."""
    out = frags[0].copy()
    for f in frags[1:]:
        a = f[:, :, 3]
        if ((a == 0) | (a == 255)).all():
            m = a == 255
            out[m] = f[m]
        else:
            composite_over(out, f)
    return out


# ---------------------------------------------------------------------------
# overview downsample (2×2 box)
# ---------------------------------------------------------------------------


def downsample_children(children, mode="box"):
    """children: dict {(dx, dy) in {0,1}²: 256×256×4 uint8} → parent tile.

    ``box`` (default): the 2×2 box filter of the 512×512 mosaic
    (missing quadrants transparent) → 256×256, channels averaged with
    round-half-up — the deterministic equivalent of the reference's
    antialias ×2 shrink for the exact-factor-2 case [C semantics].
    ``nearest``: top-left child pixel of each 2×2 (the reference's
    --overview-resampling nearest).
    ``bilinear``: PIL-style scaled tent for a ×2 shrink — support
    widens with the factor, giving a separable 4-tap kernel
    (1, 3, 3, 1)/8 per axis with edge-clamped borders (vs box's
    2-tap (1, 1)/2); channels filtered independently, round-half-up.
    ``lanczos``: Lanczos-3 scaled for the ×2 shrink — support widens
    to a·factor = 6 input pixels each side, giving a separable 12-tap
    windowed-sinc per axis (matching PIL's scaled-support LANCZOS
    downscale); negative lobes clipped after the separable passes.
    The reference's 'antialias' mode equals ``box`` at the exact ×2
    factor, so no separate mode is needed for it."""
    if mode == "nearest":
        mosaic = np.zeros((2 * TILE, 2 * TILE, 4), dtype=np.uint8)
        for (dx, dy), px in children.items():
            mosaic[dy * TILE : (dy + 1) * TILE, dx * TILE : (dx + 1) * TILE] = px
        return mosaic[0::2, 0::2].copy()
    if mode == "bilinear":
        mosaic = np.zeros((2 * TILE, 2 * TILE, 4), dtype=np.float32)
        for (dx, dy), px in children.items():
            mosaic[dy * TILE : (dy + 1) * TILE, dx * TILE : (dx + 1) * TILE] = px
        pad = np.pad(mosaic, ((1, 1), (1, 1), (0, 0)), mode="edge")
        # rows: out[i] = (p[2i] + 3p[2i+1] + 3p[2i+2] + p[2i+3]) / 8
        rows = (
            pad[0:-3:2] + 3.0 * pad[1:-2:2] + 3.0 * pad[2:-1:2] + pad[3::2]
        )
        cols = (
            rows[:, 0:-3:2]
            + 3.0 * rows[:, 1:-2:2]
            + 3.0 * rows[:, 2:-1:2]
            + rows[:, 3::2]
        )
        return np.clip(np.floor(cols / 64.0 + 0.5), 0, 255).astype(np.uint8)
    if mode == "lanczos":
        # out center (2i+1) in mosaic coords; taps j = 2i-5 .. 2i+6 at
        # t = (j+0.5) - (2i+1) ∈ {-5.5 .. +5.5}; w(t) = sinc(t/2)·sinc(t/6)
        t = np.arange(12, dtype=np.float64) - 5.5
        w = np.sinc(t / 2.0) * np.sinc(t / 6.0)
        w /= w.sum()
        mosaic = np.zeros((2 * TILE, 2 * TILE, 4), dtype=np.float32)
        for (dx, dy), px in children.items():
            mosaic[dy * TILE : (dy + 1) * TILE, dx * TILE : (dx + 1) * TILE] = px
        pad = np.pad(mosaic, ((5, 6), (5, 6), (0, 0)), mode="edge")
        rows = np.zeros((TILE, pad.shape[1], 4), dtype=np.float32)
        for k in range(12):
            rows += np.float32(w[k]) * pad[k : k + 2 * TILE : 2]
        cols = np.zeros((TILE, TILE, 4), dtype=np.float32)
        for k in range(12):
            cols += np.float32(w[k]) * rows[:, k : k + 2 * TILE : 2]
        return np.clip(np.floor(cols + 0.5), 0, 255).astype(np.uint8)
    if mode != "box":
        raise ValueError(f"unknown overview resampling {mode!r}")
    # each present child boxes down to its own quadrant (a uint16 sum of
    # its row pairs, then of the column pairs); a missing quadrant stays
    # 0, what (0 + 2) >> 2 gives
    half = TILE // 2
    out = np.zeros((TILE, TILE, 4), dtype=np.uint8)
    for (dx, dy), px in children.items():
        rows = px[0::2].astype(np.uint16)
        rows += px[1::2]
        rows = rows.reshape(half, half, 2, 4)
        s = rows[:, :, 0] + rows[:, :, 1]
        s += 2
        s >>= 2
        out[dy * half : (dy + 1) * half, dx * half : (dx + 1) * half] = s
    return out


# ---------------------------------------------------------------------------
# fragment emission for one image row (shared by golden + Ray stage)
# ---------------------------------------------------------------------------


def emit_fragments_for_image(
    pixels, gt, srs, cutline, zooms, resampling="nearest", only_tiles=None,
    profile="mercator", poly=None,
):
    """Yield (z, x, y, fragment) for every base-zoom tile the image
    covers. ``zooms`` is the list of BASE zooms to cut at (normally one
    zoom; overview levels are built by reduction, not re-cut).
    ``only_tiles``: optional set of (x, y) to restrict emission (the
    resume filter). Implementation: one whole-image warp per zoom over
    the tight footprint window, then zero-padded 256×256 slices — not
    one transform per tile."""
    for z in zooms:
        gx0, gy0, warped = warp_image_to_base(
            pixels, gt, srs, cutline, z, resampling, profile=profile, poly=poly
        )
        hh, ww = warped.shape[:2]
        if hh == 0 or ww == 0:
            continue
        tx0, tx1 = gx0 // TILE, (gx0 + ww - 1) // TILE
        ty0, ty1 = gy0 // TILE, (gy0 + hh - 1) // TILE
        for y in range(ty0, ty1 + 1):
            for x in range(tx0, tx1 + 1):
                if only_tiles is not None and (x, y) not in only_tiles:
                    continue
                # warped-window slice for this tile + zero padding
                wy0 = max(y * TILE - gy0, 0)
                wy1 = min((y + 1) * TILE - gy0, hh)
                wx0 = max(x * TILE - gx0, 0)
                wx1 = min((x + 1) * TILE - gx0, ww)
                sub = warped[wy0:wy1, wx0:wx1]
                if not sub[:, :, 3].any():
                    continue
                if sub.shape[:2] == (TILE, TILE):
                    # fully-covered tile: yield the window view directly
                    # (consumers pack/copy; skips a zero-fill + copy)
                    yield z, x, y, sub
                    continue
                frag = np.zeros((TILE, TILE, 4), dtype=np.uint8)
                oy = wy0 + gy0 - y * TILE
                ox = wx0 + gx0 - x * TILE
                frag[oy : oy + sub.shape[0], ox : ox + sub.shape[1]] = sub
                yield z, x, y, frag


# ---------------------------------------------------------------------------
# group-reduce policies (shared by golden.py and the Ray groupby stages
# so orchestration differences can never change outputs)
# ---------------------------------------------------------------------------


def reduce_base_group(entries):
    """Composite one tile's fragments → (pixels, caption, src_ids).

    ``entries`` = list of (zorder, image_id, caption, frag_pixels),
    NOT necessarily sorted — sorted here by (zorder, image_id), the
    reference's source-priority order (tiles_merge CLI order [C]).
    Caption policy (graft M10): caption of the max-opaque-coverage
    contributor, ties broken by smallest image_id. src_ids = composite
    order (lineage)."""
    entries = sorted(entries, key=lambda e: (e[0], e[1]))
    pixels = composite_fragments([e[3] for e in entries])
    best = max(
        entries, key=lambda e: (int((e[3][:, :, 3] > 0).sum()), _neg_id(e[1]))
    )
    caption = best[2]
    src_ids = [e[1] for e in entries]
    return pixels, caption, src_ids


def _neg_id(image_id):
    """Sort helper: max() must prefer the SMALLEST image_id on coverage
    ties → use a reversed-ordering key (works for fixed-format ids)."""
    return tuple(-ord(c) for c in image_id)


def reduce_merge_group(entries):
    """Tile-set merge reduce (tiles_merge.py semantics [C]: CLI-order
    paste-with-mask): entries = (order, label, caption, pixels,
    src_ids), composited in ascending ``order`` (later set paints
    over earlier). Caption: max-opaque-coverage contributor, ties →
    lowest order. src_ids: concatenation in composite order."""
    entries = sorted(entries, key=lambda e: e[0])
    pixels = composite_fragments([e[3] for e in entries])
    best = max(entries, key=lambda e: (int((e[3][:, :, 3] > 0).sum()), -e[0]))
    caption = best[2]
    src_ids = [s for e in entries for s in e[4]]
    return pixels, caption, src_ids


def reduce_parent_group(children, mode="box"):
    """Overview reduce: children = dict {(dx,dy): (pixels, caption,
    src_ids)} → (pixels, caption, src_ids) of the parent.

    Caption: child with max opaque pixels, ties by (dy, dx). src_ids:
    sorted dedup union (lineage)."""
    pixels = downsample_children({k: v[0] for k, v in children.items()}, mode)
    best_key = max(
        children,
        key=lambda k: (int((children[k][0][:, :, 3] > 0).sum()), -k[1], -k[0]),
    )
    caption = children[best_key][1]
    src_ids = sorted({s for v in children.values() for s in v[2]})
    return pixels, caption, src_ids


def tile_checksum(pixels):
    """Deterministic int64 checksum of tile pixels (lineage records)."""
    import zlib

    return zlib.crc32(np.ascontiguousarray(pixels).tobytes())
