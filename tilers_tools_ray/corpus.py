"""Deterministic synthetic image+caption corpus (FIXTURES.md §A).

Generates the ``images`` table with the exact `input_hint` schema
(BASELINE.json:15) — (image_id, bytes, w, h, fmt, caption, phash) —
plus the georeferencing columns the engine's map2gdal-equivalent
produces (gt, srs, cutline_wkb, zorder) and an Ozi-style text sidecar
column (georef_text) that exercises the reader/parser operator family
(SURVEY.md §2 S2–S5).  Also generates the small ``coverage`` polygon
table (spatial-join right side).

Everything is seeded per-row (``default_rng([seed, i])``) so any slice
regenerates identically — no wall-clock, no global RNG state. The
corpus can be generated serially or via Ray Data (``use_ray=True``)
for bench scales; both paths produce byte-identical parquet rows.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import codecs
from . import geometry as geo
from . import raster
from . import tilegrid as tg
from .scan import _run_units

SCALES = {"tiny": 200, "small": 5000, "bench": 50000}
N_HOTSPOTS = 50
DUP_PERIOD = 97  # every 97th row duplicates its predecessor's pixels (~1%)

_WORDS = (
    "map chart tile raster ocean harbor café niño 北京 zürich survey depth "
    "reef shoal beacon light Ωmega grid datum zoom overlay"
).split()

DATUM_TABLE = {
    # datum name → (shift applied to world coords in the sidecar text);
    # the reference's small static datum lookup (reader_backend.py [C])
    "WGS 84": (0.0, 0.0),
    "FAKE-SHIFTED": (1200.0, -800.0),
}


def hotspots(seed):
    rng = np.random.default_rng([seed, 777])
    pts = rng.uniform(-0.66 * tg.ORIGIN, 0.66 * tg.ORIGIN, (N_HOTSPOTS, 2))
    w = 1.0 / np.arange(1, N_HOTSPOTS + 1)  # Zipf weights (skew §4.2)
    return pts, w / w.sum()


def synth_pixels(rng, h, w):
    """Gradient + checker + noise patch — non-trivial spectrum."""
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.empty((h, w, 4), dtype=np.uint8)
    phase = rng.integers(0, 256, 3)
    img[:, :, 0] = ((xx * 255 // max(w - 1, 1)) + phase[0]) % 256
    img[:, :, 1] = ((yy * 255 // max(h - 1, 1)) + phase[1]) % 256
    img[:, :, 2] = (((xx // 8 + yy // 8) % 2) * 180 + phase[2] % 60).astype(np.uint8)
    ph, pw = h // 4, w // 4
    y0 = int(rng.integers(0, h - ph))
    x0 = int(rng.integers(0, w - pw))
    img[y0 : y0 + ph, x0 : x0 + pw, :3] = rng.integers(0, 256, (ph, pw, 3))
    img[:, :, 3] = 255
    return img


def _caption(rng):
    if rng.random() < 0.02:
        return ""
    n = int(rng.integers(1, 12))
    return " ".join(_WORDS[int(k)] for k in rng.integers(0, len(_WORDS), n))


def _cutline(rng, w, h):
    r = rng.random()
    if r < 0.70:  # full frame
        return np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
    if r < 0.95:  # convex inset hexagon
        cx, cy = w / 2.0, h / 2.0
        ang = np.sort(rng.uniform(0, 2 * np.pi, 6))
        rad = rng.uniform(0.55, 0.95, 6)
        return np.stack(
            [cx + np.cos(ang) * rad * cx, cy + np.sin(ang) * rad * cy], axis=1
        )
    # concave L-shape
    return np.array(
        [[0, 0], [w, 0], [w, 0.4 * h], [0.4 * w, 0.4 * h], [0.4 * w, h], [0, h]],
        dtype=np.float64,
    )


def _georef(rng, w, h, hot_pts, hot_w):
    """Place the image footprint in the world; returns (gt, srs)."""
    res_m = float(tg.resolution(9) * np.exp2(rng.uniform(0.0, 2.0)))  # z in [7,9]
    if rng.random() < 0.8:
        k = int(rng.choice(len(hot_w), p=hot_w))
        cx, cy = hot_pts[k] + rng.normal(0, 2.0e5, 2)
    else:
        cx, cy = rng.uniform(-0.7 * tg.ORIGIN, 0.7 * tg.ORIGIN, 2)
    cx = float(np.clip(cx, -0.75 * tg.ORIGIN, 0.75 * tg.ORIGIN))
    cy = float(np.clip(cy, -0.75 * tg.ORIGIN, 0.75 * tg.ORIGIN))
    rot = 0.0
    if rng.random() < 0.10:
        rot = float(rng.uniform(-0.08, 0.08))  # slight rotation (M3 generality)
    srs = "EPSG:3857" if rng.random() < 0.9 else "EPSG:4326"
    if srs == "EPSG:4326":
        # express the same placement in degrees (equatorial scaling —
        # synthetic corpus, documented substitution)
        deg = 180.0 / tg.ORIGIN
        lon0, lat0 = cx * deg, np.degrees(
            2.0 * np.arctan(np.exp(cy / tg.EARTH_RADIUS)) - np.pi / 2.0
        )
        res_d = res_m * deg
        gt = [
            lon0 - (w / 2.0) * res_d,
            res_d,
            rot * res_d,
            # top edge: derive by stepping lat; linear approx is fine for
            # the synthetic corpus (both golden and engine share it)
            lat0 + (h / 2.0) * res_d * 0.8,
            rot * res_d,
            -res_d * 0.8,
        ]
    else:
        gt = [
            cx - (w / 2.0) * res_m,
            res_m,
            rot * res_m,
            cy + (h / 2.0) * res_m,
            rot * res_m,
            -res_m,
        ]
    return np.array(gt, dtype=np.float64), srs


def _sidecar_text(image_id, gt, srs, cutline, w, h, datum):
    """Ozi-style map sidecar (engine-defined grammar emulating
    reader_ozi.py's Point/MMPXY records [C semantics])."""
    shift = DATUM_TABLE[datum]
    px = np.array([0.0, w, w, 0.0, w / 2.0])
    py = np.array([0.0, 0.0, h, h, h / 2.0])
    wx, wy = geo.apply_gt(gt, px, py)
    lines = [
        "OziExplorer Map Data File Version 2.2",
        image_id,
        f"{datum},{srs}",
    ]
    for i in range(5):
        lines.append(
            f"Point{i + 1:02d},xy,{px[i]:.1f},{py[i]:.1f},world,"
            f"{wx[i] + shift[0]:.9f},{wy[i] + shift[1]:.9f}"
        )
    for i, (vx, vy) in enumerate(cutline):
        lines.append(f"MMPXY,{i + 1},{vx:.4f},{vy:.4f}")
    return "\n".join(lines)


def gen_row(i, seed, hot_pts, hot_w):
    rng = np.random.default_rng([seed, i])
    w = int(rng.choice([64, 128, 256]))
    h = int(rng.choice([64, 128, 256]))
    fmt = str(rng.choice(["raw", "png", "dct", "dct", "ozf"]))
    if i % DUP_PERIOD == DUP_PERIOD - 1 and i > 0:
        # duplicate predecessor's content (dedup fixture A4)
        prev = gen_row(i - 1, seed, hot_pts, hot_w)
        pixels = None
        row = dict(prev)
        row["image_id"] = f"img-{i:08d}"
        row["zorder"] = i
        return row
    pixels = synth_pixels(rng, h, w)
    if fmt == "ozf":
        # chart-like limited palette (6×6×7 = 252 colors): the OZF
        # container is paletted, so posterized sources round-trip
        # losslessly (the bespoke-binary decode is what S6 exercises)
        pixels[:, :, 0] = pixels[:, :, 0] // 43 * 43 + 21
        pixels[:, :, 1] = pixels[:, :, 1] // 43 * 43 + 21
        pixels[:, :, 2] = pixels[:, :, 2] // 37 * 37 + 18
    data = codecs.encode_image(pixels, fmt)
    decoded = codecs.decode_image(data, fmt)
    gt, srs = _georef(rng, w, h, hot_pts, hot_w)
    cutline = _cutline(rng, w, h)
    datum = "WGS 84" if rng.random() < 0.95 else "FAKE-SHIFTED"
    image_id = f"img-{i:08d}"
    return {
        "image_id": image_id,
        "bytes": data,
        "w": w,
        "h": h,
        "fmt": fmt,
        "caption": _caption(rng),
        "phash": codecs.phash64(decoded),
        "gt": gt.tolist(),
        "srs": srs,
        "cutline_wkb": raster.wkb_polygon(cutline),
        "zorder": i,
        "georef_text": _sidecar_text(image_id, gt, srs, cutline, w, h, datum),
    }


IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("gt", pa.list_(pa.float64())),
        ("srs", pa.string()),
        ("cutline_wkb", pa.binary()),
        ("zorder", pa.int32()),
        ("georef_text", pa.string()),
    ]
)


def rows_to_table(rows):
    cols = {name: [r[name] for r in rows] for name in IMAGES_SCHEMA.names}
    return pa.table(cols, schema=IMAGES_SCHEMA)


def utm_rows(seed=77, n=6, zone=33, lat_c=45.0):
    """n deterministic images georeferenced in UTM meters (EPSG:326xx)
    around the zone's central meridian at ``lat_c`` — the arbitrary-SRS
    warp fixture (upstream: GDAL warp of any proj4 SRS). Every third
    image carries a small rotation term so the tmerc warp path sees
    non-axis-aligned geotransforms too."""
    from . import codecs, proj, raster

    tm = proj.parse_srs(proj.utm_srs(zone))
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        w = h = int(rng.choice([96, 128]))
        lon_c = tm.lon0 + rng.uniform(-1.5, 1.5)
        lat_i = lat_c + rng.uniform(-1.0, 1.0)
        ex, ny_ = tm.forward(lon_c, lat_i)
        res_m = float(rng.uniform(400.0, 700.0))  # → z8-ish base
        rot = float(rng.uniform(-0.05, 0.05)) if i % 3 == 0 else 0.0
        gt = [
            float(ex) - (w / 2.0) * res_m,
            res_m,
            rot * res_m,
            float(ny_) + (h / 2.0) * res_m,
            rot * res_m,
            -res_m,
        ]
        pixels = synth_pixels(rng, h, w)
        fmt = str(rng.choice(["raw", "png", "dct"]))
        data = codecs.encode_image(pixels, fmt)
        ring = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
        rows.append(
            {
                "image_id": f"utm-{i:04d}",
                "bytes": data,
                "w": w,
                "h": h,
                "fmt": fmt,
                "caption": f"utm caption {i}",
                "phash": codecs.phash64(codecs.decode_image(data, fmt)),
                "gt": gt,
                "srs": proj.utm_srs(zone),
                "cutline_wkb": raster.wkb_polygon(ring),
                "zorder": i,
                "georef_text": "",
            }
        )
    return rows


def conic_rows(srs, lon_c, lat_c, seed=78, n=6):
    """n deterministic images georeferenced in conic-projection meters
    (Lambert conformal / Albers, e.g. ``EPSG:2154``) around
    (lon_c, lat_c) — the conic leg of the arbitrary-SRS warp fixture
    (same shape as :func:`utm_rows`; upstream: GDAL warp of any proj4
    SRS). Every third image carries a small rotation term."""
    from . import codecs, proj, raster

    kern = proj.parse_srs(srs)
    if kern is None:
        raise ValueError(f"not a conic/tmerc srs: {srs!r}")
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        w = h = int(rng.choice([96, 128]))
        lon_i = lon_c + rng.uniform(-1.5, 1.5)
        lat_i = lat_c + rng.uniform(-1.0, 1.0)
        ex, ny_ = kern.forward(lon_i, lat_i)
        res_m = float(rng.uniform(400.0, 700.0))
        rot = float(rng.uniform(-0.05, 0.05)) if i % 3 == 0 else 0.0
        gt = [
            float(ex) - (w / 2.0) * res_m,
            res_m,
            rot * res_m,
            float(ny_) + (h / 2.0) * res_m,
            rot * res_m,
            -res_m,
        ]
        pixels = synth_pixels(rng, h, w)
        fmt = str(rng.choice(["raw", "png", "dct"]))
        data = codecs.encode_image(pixels, fmt)
        ring = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
        rows.append(
            {
                "image_id": f"conic-{i:04d}",
                "bytes": data,
                "w": w,
                "h": h,
                "fmt": fmt,
                "caption": f"conic caption {i}",
                "phash": codecs.phash64(codecs.decode_image(data, fmt)),
                "gt": gt,
                "srs": srs,
                "cutline_wkb": raster.wkb_polygon(ring),
                "zorder": i,
                "georef_text": "",
            }
        )
    return rows


def gen_coverage(seed, n_regions):
    """Coverage polygon table (FIXTURES.md A2): convex rings near the
    hotspots + a few boundary slivers for the kNN fallback."""
    hot_pts, hot_w = hotspots(seed)
    rows = []
    for k in range(n_regions):
        rng = np.random.default_rng([seed, 10_000_000 + k])
        if rng.random() < 0.7:
            j = int(rng.choice(len(hot_w), p=hot_w))
            cx, cy = hot_pts[j] + rng.normal(0, 3.0e5, 2)
        else:
            cx, cy = rng.uniform(-0.7 * tg.ORIGIN, 0.7 * tg.ORIGIN, 2)
        if k % 17 == 16:  # sliver
            rx, ry = rng.uniform(2e4, 6e4), rng.uniform(4e5, 1.2e6)
        else:
            rx = ry = rng.uniform(2.5e5, 9e5)
        ang = np.sort(rng.uniform(0, 2 * np.pi, int(rng.integers(5, 9))))
        ring = np.stack(
            [cx + np.cos(ang) * rx, cy + np.sin(ang) * ry], axis=1
        )
        ring = np.clip(ring, -0.95 * tg.ORIGIN, 0.95 * tg.ORIGIN)
        cells = geo.cover_ring_merc(ring, level=7)
        rows.append(
            {
                "region_id": f"reg-{k:04d}",
                "ring_xy": ring.tolist(),
                "cells": [int(c) for c in cells],
            }
        )
    return pa.table(
        {
            "region_id": [r["region_id"] for r in rows],
            "ring_xy": [r["ring_xy"] for r in rows],
            "cells": [r["cells"] for r in rows],
        },
        schema=pa.schema(
            [
                ("region_id", pa.string()),
                ("ring_xy", pa.list_(pa.list_(pa.float64()))),
                ("cells", pa.list_(pa.int64())),
            ]
        ),
    )


def _write_part(part, seed, hot):
    """One part file of the multi-file layout: ids ``lo:hi``."""
    path, lo, hi = part
    rows = [gen_row(i, seed, *hot) for i in range(lo, hi)]
    pq.write_table(rows_to_table(rows), path, row_group_size=max(100, (hi - lo) // 4))


def generate(out_dir, scale="tiny", seed=1234, n_rows=None, use_ray=False):
    """Write images.parquet + coverage.parquet under ``out_dir``.

    ``use_ray=True`` or more than 2000 rows writes ``images`` as a
    directory of 32 parts; with ``use_ray`` each part is made by one
    plain Ray task (``scan._run_units``), else the parts are written in
    a loop. Returns {"images": path, "coverage": path}. Idempotent:
    skips regeneration when both files already exist."""
    n = n_rows if n_rows is not None else SCALES[scale]
    n_regions = {"tiny": 24, "small": 100}.get(scale, 200)
    os.makedirs(out_dir, exist_ok=True)
    multi = use_ray or n > 2000
    images_path = os.path.join(out_dir, "images" if multi else "images.parquet")
    coverage_path = os.path.join(out_dir, "coverage.parquet")
    done_marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(done_marker):
        return {"images": images_path, "coverage": coverage_path}
    hot_pts, hot_w = hotspots(seed)
    if multi:
        # deterministic multi-file layout → parallel reads downstream
        # (a single big parquet file reads as ONE serial Ray task): part
        # i holds ids bounds[i]:bounds[i+1], and the zero-padded
        # image_id makes id order image_id order
        os.makedirs(images_path, exist_ok=True)
        k = 32
        bounds = [n * i // k for i in range(k + 1)]
        parts = [
            (os.path.join(images_path, f"part-{i:04d}.parquet"), lo, hi)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if hi > lo
        ]

        def write(part):
            _write_part(part, seed, (hot_pts, hot_w))

        if use_ray:  # one plain task per part
            _run_units(parts, write)
        else:
            for part in parts:
                write(part)
    else:
        table = rows_to_table([gen_row(i, seed, hot_pts, hot_w) for i in range(n)])
        pq.write_table(table, images_path, row_group_size=max(100, n // 8))
    pq.write_table(gen_coverage(seed, n_regions), coverage_path)
    with open(done_marker, "w") as f:
        f.write("ok")
    return {"images": images_path, "coverage": coverage_path}
