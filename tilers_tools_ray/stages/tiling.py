"""Stages of the tile pyramid (SURVEY.md §3.1 engine flow), run in
plain Ray tasks by ``pipelines.pyramid``.

Design: ``part`` is a tile's quadtree ancestor cell at a coarse zoom
(z_part). There is no shuffle: emitter tasks spill their fragments to
part-sorted files, and each part (or each salt range of a hot part)
reads only its own row groups (``pyramid._base_level``). A part is the
unit of:
  - the base composite (every tile's fragments land in one part,
    because tile cells nest inside part cells),
  - the output parquet file (one file per part → resumable),
  - the lineage manifest row (per-partition lineage, BASELINE.json:14).

The base composite is one per-tile fold (``fold_part``) over states
ordered by (salt, zorder, image_id): a plain part folds its fragments
into tile rows. Skew (§4.2): a hot part is salted into contiguous-zorder
ranges — ``salt = zorder * s // n_zorder`` — each range folds its
fragments into a partial state per tile, and the same fold over the
part's partials, in salt order, gives its tile rows. Exact because
fragment alpha is binary (cutline mask), so the composite is
"latest-opaque-wins per pixel", associative over ordered ranges.

Pixels travel as zlib-1-packed RGBA ``binary`` values (≈17× smaller
than raw for map imagery at >250 MB/s — the fragment exchange moves
~150 MB instead of 2.5 GB per 10k fragments) — never Python objects.
``pack_pixels`` / ``unpack_pixels`` are the only codec for in-flight
tile pixels.

Reference parity: decode = M1 (PIL in the reference), warp-cut =
gdal_tiler's per-tile warp window (M4–M7), composite = tiles_merge
paste-with-mask (A1/J4), overview = gdal_tiler overview loop (A2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import codecs, raster
from .. import tilegrid as tg

TILE = tg.TILE_SIZE

FRAGMENT_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("salt", pa.int32()),
        ("tile_key", pa.int64()),
        ("zorder", pa.int32()),
        ("image_id", pa.string()),
        ("caption", pa.string()),
        ("frag", pa.binary()),
    ]
)

#: ``part`` of the one fragment row a skipped image leaves behind under
#: ``on_bad="skip"``: its ``frag`` is null and its ``caption`` holds the
#: reason, so the report reaches the driver with the fragments
SKIPPED_PART = -1

TILE_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("tile_key", pa.int64()),
        ("z", pa.int8()),
        ("x", pa.int32()),
        ("y", pa.int32()),
        ("pixels", pa.binary()),
        ("caption", pa.string()),
        ("src_ids", pa.list_(pa.string())),
        ("checksum", pa.int64()),
    ]
)

PARTIAL_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("salt", pa.int32()),
        ("tile_key", pa.int64()),
        ("pixels", pa.binary()),
        ("best_cov", pa.int64()),
        ("best_id", pa.string()),
        ("best_caption", pa.string()),
        ("src_ids", pa.list_(pa.string())),
    ]
)


def pack_pixels(arr):
    """256×256×4 uint8 → zlib-1 bytes (the in-flight pixel format)."""
    import zlib

    return zlib.compress(np.ascontiguousarray(arr).tobytes(), 1)


def unpack_pixels(buf):
    import zlib

    return np.frombuffer(zlib.decompress(buf), dtype=np.uint8).reshape(
        TILE, TILE, 4
    )


_np_frag = unpack_pixels  # internal alias


def part_of_key(key, z_part):
    """Quadtree ancestor cell of tile_key at zoom z_part (vectorized)."""
    z, x, y = tg.unpack_key(key)
    shift = z - z_part
    return tg.pack_key(np.full_like(z, z_part), x >> shift, y >> shift)


def _maybe_get(ref):
    if ref is None or isinstance(ref, (dict, set, frozenset)):
        return ref
    import ray

    return ray.get(ref)


class FragmentEmitter:
    """Decode (M1) + warp-cut (M4–M7) stage (T1/T2), built once in each
    plain Ray task of the emission (``pyramid._emit_units``, one task per
    input unit) and called on the unit's rows in batch-size slices.

    State built once per task: broadcast salt plan + done-part set
    (``ray.put`` ObjectRefs resolved in __init__, never per batch).
    Resume (D2/§4.3): tiles whose part is in ``done_parts`` are not
    emitted; an image is not even decoded when ALL its tiles are done.
    """

    def __init__(
        self,
        z_base,
        z_part,
        resampling="nearest",
        salt_plan=None,
        n_zorder=1,
        done_parts=None,
        profile="mercator",
        on_bad="raise",
    ):
        self.z_base = int(z_base)
        self.z_part = int(z_part)
        self.resampling = resampling
        self.salt_plan = _maybe_get(salt_plan) or {}
        self.n_zorder = max(int(n_zorder), 1)
        self.done_parts = _maybe_get(done_parts) or frozenset()
        self.profile = profile
        # "raise" (default) fails the job on a corrupt row; "skip"
        # drops the image whole (per-image buffering below guarantees
        # no partial fragments) and emits one SKIPPED_PART row for it —
        # at the 100 TB target a handful of corrupt blobs must not kill
        # a multi-hour job
        self.on_bad = on_bad

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in FRAGMENT_SCHEMA.names}
        cols = {
            name: batch.column(name).to_pylist()
            for name in (
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
            )
        }
        # optional order-2 GCP polynomial column (null → affine gt)
        cols["poly"] = (
            batch.column("poly").to_pylist()
            if "poly" in batch.schema.names
            else [None] * batch.num_rows
        )
        shift = self.z_base - self.z_part
        for i in range(batch.num_rows):
            mine = {k: [] for k in FRAGMENT_SCHEMA.names}  # per-image
            # buffer: on a mid-image failure nothing partial is emitted
            try:
                gt = np.asarray(cols["gt"][i], dtype=np.float64)
                srs = cols["srs"][i]
                zo = int(cols["zorder"][i])
                for z, x, y, frag in self._fragments(cols, i, gt, srs):
                    key = int(tg.pack_key(z, x, y))
                    part = int(
                        tg.pack_key(self.z_part, x >> shift, y >> shift)
                    )
                    if part in self.done_parts:
                        continue
                    s = self.salt_plan.get(part, 1)
                    salt = zo * s // self.n_zorder if s > 1 else 0
                    mine["part"].append(part)
                    mine["salt"].append(salt)
                    mine["tile_key"].append(key)
                    mine["zorder"].append(zo)
                    mine["image_id"].append(cols["image_id"][i])
                    mine["caption"].append(cols["caption"][i])
                    mine["frag"].append(pack_pixels(frag))
            except Exception as ex:
                if self.on_bad != "skip":
                    raise
                mine = {k: [None] for k in FRAGMENT_SCHEMA.names}
                mine["part"] = [SKIPPED_PART]
                mine["image_id"] = [cols["image_id"][i]]
                mine["caption"] = [f"{type(ex).__name__}: {ex}"]
            for k in out:
                out[k].extend(mine[k])
        return pa.table(out, schema=FRAGMENT_SCHEMA)

    def _fragments(self, cols, i, gt, srs):
        """Lazy decode: the touched-tile list comes from georef + (w, h)
        columns alone, so an image whose parts are ALL done is never
        decoded (resume fast path, §4.3)."""
        w, h = int(cols["w"][i]), int(cols["h"][i])
        poly = cols["poly"][i]
        if poly is not None:
            poly = np.asarray(poly, dtype=np.float64)
        xs, ys = raster.base_tiles_for_image(
            gt, w, h, srs, self.z_base, profile=self.profile, poly=poly
        )
        shift = self.z_base - self.z_part
        todo = [
            (int(x), int(y))
            for x, y in zip(xs.tolist(), ys.tolist())
            if int(tg.pack_key(self.z_part, x >> shift, y >> shift))
            not in self.done_parts
        ]
        if not todo:
            return
        pixels = codecs.decode_image(cols["bytes"][i], cols["fmt"][i])
        cutline = raster.parse_wkb_polygon(cols["cutline_wkb"][i])
        only = set(todo) if len(todo) < len(xs) else None
        yield from raster.emit_fragments_for_image(
            pixels, gt, srs, cutline, [self.z_base], self.resampling,
            only_tiles=only, profile=self.profile, poly=poly,
        )


class TouchedParts:
    """Georef-only pre-pass (no decode): emit (part, n_frags) partial
    counts per batch — the census feeding the salt plan (§4.2) and the
    per-part fragment estimate. Pre-aggregated inside the batch, so the
    driver sums one row per (batch, part)."""

    def __init__(self, z_base, z_part, profile="mercator"):
        self.z_base = int(z_base)
        self.z_part = int(z_part)
        self.profile = profile

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts = {}
        gts = batch.column("gt").to_pylist()
        srss = batch.column("srs").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        polys = (
            batch.column("poly").to_pylist()
            if "poly" in batch.schema.names
            else [None] * batch.num_rows
        )
        shift = self.z_base - self.z_part
        for i in range(batch.num_rows):
            gt = np.asarray(gts[i], dtype=np.float64)
            poly = polys[i]
            if poly is not None:
                poly = np.asarray(poly, dtype=np.float64)
            xs, ys = raster.base_tiles_for_image(
                gt, ws[i], hs[i], srss[i], self.z_base, profile=self.profile,
                poly=poly,
            )
            parts = tg.pack_key(
                np.full(len(xs), self.z_part, dtype=np.int64),
                xs >> shift,
                ys >> shift,
            )
            uniq, cnt = np.unique(parts, return_counts=True)
            for p, c in zip(uniq.tolist(), cnt.tolist()):
                counts[p] = counts.get(p, 0) + c
        return pa.table(
            {
                "part": pa.array(list(counts), pa.int64()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )


# ---------------------------------------------------------------------------
# base level (A1): one per-tile fold
# ---------------------------------------------------------------------------


def _tile_table(part, keys, bufs, caps, srcs, sums):
    """TILE_SCHEMA rows of one part from per-tile columns (packed
    pixels ``bufs``, checksums ``sums``)."""
    z, x, y = tg.unpack_key(np.asarray(keys, dtype=np.int64))
    return pa.table(
        {
            "part": pa.array(np.full(len(keys), part), pa.int64()),
            "tile_key": pa.array(keys, pa.int64()),
            "z": pa.array(z, pa.int8()),
            "x": pa.array(x, pa.int32()),
            "y": pa.array(y, pa.int32()),
            "pixels": pa.array(bufs, pa.binary()),
            "caption": pa.array(caps, pa.string()),
            "src_ids": pa.array(srcs, pa.list_(pa.string())),
            "checksum": pa.array(sums, pa.int64()),
        },
        schema=TILE_SCHEMA,
    )


def _tile_rows(reduced):
    """reduced: list of (part, tile_key, pixels, caption, src_ids)."""
    part = reduced[0][0] if reduced else 0
    return _tile_table(
        part,
        [r[1] for r in reduced],
        [pack_pixels(r[2]) for r in reduced],
        [r[3] for r in reduced],
        [r[4] for r in reduced],
        [raster.tile_checksum(r[2]) for r in reduced],
    )


def _opaque(pixels):
    return int((pixels[:, :, 3] > 0).sum())


def _states(rows: pa.Table):
    """A part's rows as fold states, one per row: ``(tile_key, salt,
    zorder, id, caption, packed pixels, coverage, src_ids)`` columns.
    An emitted fragment (``FRAGMENT_SCHEMA``) is a state of its own
    pixels, id and caption, ``[id]``, and a coverage not yet counted
    (``None``); a salted range's partial (``PARTIAL_SCHEMA``) carries
    its best coverage, id and caption, and its ``src_ids``."""
    col = lambda name: rows.column(name).to_pylist()
    if "frag" in rows.schema.names:
        ids = col("image_id")
        return (col("tile_key"), col("salt"), col("zorder"), ids, col("caption"),
                col("frag"), [None] * len(ids), [[i] for i in ids])
    return (col("tile_key"), col("salt"), [0] * rows.num_rows, col("best_id"),
            col("best_caption"), col("pixels"), col("best_cov"), col("src_ids"))


def fold_part(rows: pa.Table, partial=False) -> pa.Table:
    """One part's tiles from its states (A1/J4; tiles_merge paste-with-
    mask, FP-Hadoop's intermediate reduce): ``rows`` are emitted
    fragments or salted ranges' partials (``_states``), all of one part.
    Per tile, the states are ordered by (salt, zorder, id) and
    composited in that order (later paints over earlier), the caption is
    that of the largest (coverage, smallest id) and ``src_ids`` are
    concatenated. Returns ``PARTIAL_SCHEMA`` rows with ``partial`` (one
    salted range; merged later by the same fold, exact because binary
    alpha makes the composite associative over ordered ranges, SURVEY
    §7.6), else ``TILE_SCHEMA`` rows.

    A single-state tile passes its packed buffer through, unpacked once
    only for its checksum (tile rows) or its coverage (a fragment's
    partial row); most tiles are single-source in practice."""
    part = int(rows.column("part")[0].as_py())
    keys, salts, zos, ids, caps, bufs, covs, srcs = _states(rows)
    order = pc.sort_indices(
        pa.table({"k": keys, "s": salts, "z": zos, "i": ids}),
        sort_keys=[(c, "ascending") for c in "kszi"],
    ).to_numpy()
    sorted_keys = np.asarray(keys, dtype=np.int64)[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    out = {c: [] for c in ("key", "buf", "cov", "id", "cap", "src", "sum")}
    for idx in np.split(order, starts[1:]):
        idx = idx.tolist()
        tiles = [unpack_pixels(bufs[i]) for i in idx]
        if len(idx) == 1:
            buf, pixels = bufs[idx[0]], tiles[0]
        else:
            pixels = raster.composite_fragments(tiles)
            buf = pack_pixels(pixels)
        best = 0
        if partial or len(idx) > 1:
            cov = [_opaque(t) if covs[i] is None else covs[i] for i, t in zip(idx, tiles)]
            best = max(range(len(idx)), key=lambda j: (cov[j], raster._neg_id(ids[idx[j]])))
            out["cov"].append(cov[best])
        out["key"].append(keys[idx[0]])
        out["buf"].append(buf)
        out["id"].append(ids[idx[best]])
        out["cap"].append(caps[idx[best]])
        out["src"].append([s for i in idx for s in srcs[i]])
        if not partial:
            out["sum"].append(raster.tile_checksum(pixels))
    if not partial:
        return _tile_table(part, out["key"], out["buf"], out["cap"], out["src"], out["sum"])
    n = len(out["key"])
    cols = [[part] * n, [salts[0]] * n, out["key"], out["buf"], out["cov"], out["id"],
            out["cap"], out["src"]]
    return pa.table(dict(zip(PARTIAL_SCHEMA.names, cols)), schema=PARTIAL_SCHEMA)


# ---------------------------------------------------------------------------
# overview level (A2)
# ---------------------------------------------------------------------------


def cascade_part_group(group: pa.Table, z_min: int, z_base: int, mode="box"):
    """ONE group = all tiles at z_base under one z_min-ancestor cell →
    the ENTIRE overview cascade z_base-1 … z_min for that cell, built
    locally (A2 applied level by level in-memory). Replaces one
    shuffle per level with one local build per cell for all levels — the
    per-level groupby chain was pure fixed overhead at cluster scale.

    Returns {z: tile-rows pa.Table}, every level built. Group size is
    bounded by the caller's anchor rule (``pyramid.CASCADE_MAX_TILES``)."""
    return dict(_cascade_levels(group, z_min, z_base, mode))


def _cascade_levels(group: pa.Table, z_min: int, z_base: int, mode="box"):
    """``cascade_part_group`` as a generator of ``(z, tile rows)``, one
    level at a time from z_base-1 down to z_min, so a caller can commit
    (and time) each level before the next is built. The group's own
    tiles stay packed until their parent is reduced, so only one level
    of unpacked pixels is held at a time."""
    part = int(group.column("part")[0].as_py())
    level = {}
    caps = group.column("caption").to_pylist()
    srcs = group.column("src_ids").to_pylist()
    pix = group.column("pixels").to_pylist()
    for i, k in enumerate(group.column("tile_key").to_pylist()):
        level[k] = (pix[i], caps[i], list(srcs[i]))
    packed = True
    for z in range(z_base - 1, z_min - 1, -1):
        parents = {}
        for k, val in level.items():
            kz, kx, ky = (int(v) for v in tg.unpack_key(k))
            pk = int(tg.pack_key(z, kx >> 1, ky >> 1))
            parents.setdefault(pk, {})[(kx & 1, ky & 1)] = val
        level = {}
        for pk, ch in parents.items():
            if packed:
                ch = {d: (_np_frag(v[0]), v[1], v[2]) for d, v in ch.items()}
            level[pk] = raster.reduce_parent_group(ch, mode)
        packed = False
        yield z, _tile_rows(
            [(part, pk, v[0], v[1], v[2]) for pk, v in sorted(level.items())]
        )

