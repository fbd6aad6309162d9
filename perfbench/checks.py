"""Output checks, computed apart from the engine.

Each check returns a list of error strings; an empty list means the
check passed. Pyramids are read straight from the committed parquet
files with pyarrow (no Ray). Apart from the comparison against
``golden`` (the sequential reference tiler), the checks share no code
with ``raster.py``: pixels are unpacked with ``zlib`` here, checksums
are recomputed with ``zlib.crc32``, parent keys come from integer
shifts of the stored x/y, and the overview filters are re-implemented
below from their documented definitions.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TILE = 256


def unpack(buf):
    return np.frombuffer(zlib.decompress(buf), dtype=np.uint8).reshape(TILE, TILE, 4)


def read_levels(out_dir):
    """{z: pa.Table} of every committed tile of a pyramid."""
    root = os.path.join(out_dir, "tiles")
    levels = {}
    for d in sorted(os.listdir(root)):
        files = sorted(
            os.path.join(root, d, f)
            for f in os.listdir(os.path.join(root, d))
            if f.endswith(".parquet")
        )
        if files:
            levels[int(d.split("=")[1])] = pa.concat_tables(
                [pq.read_table(f) for f in files]
            )
    return levels


def tile_bytes(out_dir):
    root = os.path.join(out_dir, "tiles")
    return sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _, fs in os.walk(root)
        for f in fs
        if f.endswith(".parquet")
    )


def _rows(tbl):
    return zip(
        tbl.column("tile_key").to_pylist(),
        tbl.column("pixels").to_pylist(),
        tbl.column("caption").to_pylist(),
        tbl.column("src_ids").to_pylist(),
    )


def check_golden(levels, want):
    """Every tile equals the golden tile: key set, pixels, caption and
    src_ids."""
    errs = []
    got = {}
    for z in sorted(levels):
        for key, buf, cap, src in _rows(levels[z]):
            if key in got:
                errs.append(f"tile {key} committed twice")
            got[key] = (buf, cap, src)
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        errs.append(f"{len(missing)} golden tiles missing, e.g. {missing[:3]}")
    if extra:
        errs.append(f"{len(extra)} tiles not in golden, e.g. {extra[:3]}")
    for key in sorted(set(want) & set(got)):
        buf, cap, src = got[key]
        g_pix, g_cap, g_src = want[key]
        if unpack(buf).tobytes() != np.ascontiguousarray(g_pix).tobytes():
            errs.append(f"tile {key}: pixels differ from golden")
        if cap != g_cap:
            errs.append(f"tile {key}: caption {cap!r} != golden {g_cap!r}")
        if list(src) != list(g_src):
            errs.append(f"tile {key}: src_ids differ from golden")
        if len(errs) > 20:
            break
    return errs


def check_checksums(levels):
    """Every stored checksum equals crc32 of the unpacked pixels."""
    errs = []
    for z, tbl in sorted(levels.items()):
        for key, buf, chk in zip(
            tbl.column("tile_key").to_pylist(),
            tbl.column("pixels").to_pylist(),
            tbl.column("checksum").to_pylist(),
        ):
            if zlib.crc32(zlib.decompress(buf)) != chk:
                errs.append(f"z={z} tile {key}: checksum != crc32(pixels)")
    return errs


def _xy(tbl):
    return list(zip(tbl.column("x").to_pylist(), tbl.column("y").to_pylist()))


def check_parents(levels, z_base, z_min):
    """Every level z_min..z_base exists, holds each (x, y) once, and each
    overview level's tiles are exactly the parents of the level below."""
    errs = []
    for z in range(z_min, z_base + 1):
        if z not in levels:
            errs.append(f"level z={z} missing")
            continue
        xy = _xy(levels[z])
        if len(set(xy)) != len(xy):
            errs.append(f"level z={z}: duplicate tiles")
        if len(set(levels[z].column("z").to_pylist()) - {z}) > 0:
            errs.append(f"level z={z}: rows with another z")
    for z in range(z_min, z_base):
        if z not in levels or z + 1 not in levels:
            continue
        want = {(x >> 1, y >> 1) for x, y in _xy(levels[z + 1])}
        got = set(_xy(levels[z]))
        if got != want:
            errs.append(
                f"level z={z}: {len(want - got)} parents missing, "
                f"{len(got - want)} tiles without children"
            )
    return errs


# ---------------------------------------------------------------------------
# overview filters, re-implemented from their documented definitions
# ---------------------------------------------------------------------------


def _mosaic(children, dtype):
    m = np.zeros((2 * TILE, 2 * TILE, 4), dtype=dtype)
    for (dx, dy), px in children.items():
        m[dy * TILE:(dy + 1) * TILE, dx * TILE:(dx + 1) * TILE] = px
    return m


def box_parent(children):
    """2×2 box: (sum of the 4 children pixels + 2) >> 2, per channel;
    missing children are transparent zeros."""
    m = _mosaic(children, np.uint32)
    s = m[0::2, 0::2] + m[0::2, 1::2] + m[1::2, 0::2] + m[1::2, 1::2]
    return ((s + 2) >> 2).astype(np.uint8)


def lanczos_parent(children):
    """Lanczos-3 for an exact ×2 shrink: a separable 12-tap windowed sinc
    w(t) = sinc(t/2)·sinc(t/6), t = -5.5 … 5.5, normalised to sum 1,
    over an edge-clamped 512² mosaic; rows then columns, then
    round-half-up and clip to 0..255 (float64 here)."""
    t = np.arange(12, dtype=np.float64) - 5.5
    w = np.sinc(t / 2.0) * np.sinc(t / 6.0)
    w /= w.sum()
    m = _mosaic(children, np.float64)
    idx = np.clip(2 * np.arange(TILE)[:, None] - 5 + np.arange(12)[None, :], 0, 2 * TILE - 1)
    rows = np.einsum("ik,ikxc->ixc", np.broadcast_to(w, idx.shape), m[idx])
    cols = np.einsum("jk,ijkc->ijc", np.broadcast_to(w, idx.shape), rows[:, idx])
    return np.clip(np.floor(cols + 0.5), 0, 255).astype(np.uint8)


def children_of(levels, z, x, y):
    """{(dx, dy): pixels} of tile (z, x, y)'s children at z + 1."""
    child = levels[z + 1]
    want = {(2 * x + dx, 2 * y + dy): (dx, dy) for dx in (0, 1) for dy in (0, 1)}
    out = {}
    for (cx, cy), buf in zip(_xy(child), child.column("pixels").to_pylist()):
        if (cx, cy) in want:
            out[want[(cx, cy)]] = unpack(buf)
    return out


def sample_parents(levels, z_base, z_min, rng, n):
    """A seeded sample of (z, x, y) overview tiles."""
    cand = [(z, x, y) for z in range(z_min, z_base) if z in levels
            for x, y in _xy(levels[z])]
    pick = rng.choice(len(cand), size=min(n, len(cand)), replace=False)
    return [cand[i] for i in sorted(pick)]


def check_box(levels, parents):
    """Stored parent pixels equal box_parent of their stored children."""
    errs = []
    for z, x, y in parents:
        tbl = levels[z]
        row = _xy(tbl).index((x, y))
        stored = unpack(tbl.column("pixels")[row].as_py())
        if not np.array_equal(stored, box_parent(children_of(levels, z, x, y))):
            errs.append(f"tile z={z} x={x} y={y}: box filter differs")
    return errs


# ---------------------------------------------------------------------------
# resume and query checks
# ---------------------------------------------------------------------------


def rollup(levels):
    """{z: (tiles, xor of checksums)} from the committed tiles."""
    out = {}
    for z, tbl in levels.items():
        acc = 0
        for c in tbl.column("checksum").to_pylist():
            acc ^= c
        out[z] = (tbl.num_rows, acc)
    return out


def check_same_rollup(fresh, resumed):
    errs = []
    a, b = rollup(fresh), rollup(resumed)
    for z in sorted(set(a) | set(b)):
        if a.get(z) != b.get(z):
            errs.append(f"level z={z}: resumed {b.get(z)} != fresh {a.get(z)}")
    return errs


def check_frame(got, want):
    """Registry result vs the DuckDB oracle, with the compare of
    ``tools/preflight.py``: row count, column names, and the value hash
    after sorting."""
    import preflight

    g, w = preflight._normalize(got), preflight._normalize(want)
    if len(g) != len(w):
        return [f"{len(g)} rows, oracle has {len(w)}"]
    if list(g.columns) != list(w.columns):
        return [f"columns {list(g.columns)} != oracle {list(w.columns)}"]
    if preflight._value_hash(g) != preflight._value_hash(w):
        return ["values differ from the oracle"]
    return []


def check_region_counts(got, golden_rows):
    """spatial_join_images rows equal per-region counts of
    golden.spatial_join rows."""
    want = {}
    for _, region in golden_rows:
        want[region] = want.get(region, 0) + 1
    have = dict(zip(got["region_id"], (int(v) for v in got["n_images"])))
    if have != want:
        diff = sorted(set(have.items()) ^ set(want.items()))
        return [f"{len(diff)} region counts differ from golden, e.g. {diff[:3]}"]
    return []
