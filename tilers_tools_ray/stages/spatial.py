"""Spatial-join stages (SURVEY.md §2 J2/J3/T3).

The reference's only spatial predicate is the cutline test "is this
tile inside the map border" (gdal_tiler.py [C]); the graft generalizes
it to a broadcast spatial join of image rows against the small
coverage-polygon table: quadtree cell-encode prefilter + exact
ray-casting PIP, with a kNN nearest-region fallback for near-misses at
cutline edges (BASELINE.json:14).

Shape: the coverage table is SMALL → ``ray.put`` once on the driver;
each worker builds the CoverageIndex ONCE (``ops.worker_cached``, T3)
and every batch gets a vectorized assign in a plain task. No shuffle
and no actor pool anywhere in the join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import codecs
from .. import geometry as geo
from .. import raster
from .. import tilegrid as tg
from ..relational import ops


def centroids_merc(batch: pa.Table):
    """Footprint centroids (mercator) for a batch of image rows —
    mean of the 4 projected corners, in ONE batched affine broadcast
    (gt is a fixed 6-vector per row; no per-row Python loop)."""
    g = np.array(batch.column("gt").to_pylist(), dtype=np.float64)  # (n, 6)
    w = np.asarray(batch.column("w").to_numpy(), dtype=np.float64)
    h = np.asarray(batch.column("h").to_numpy(), dtype=np.float64)
    z = np.zeros_like(w)
    px = np.stack([z, w, w, z], axis=1)  # (n, 4) corner pixel coords
    py = np.stack([z, z, h, h], axis=1)
    wx = g[:, 0:1] + g[:, 1:2] * px + g[:, 2:3] * py
    wy = g[:, 3:4] + g[:, 4:5] * px + g[:, 5:6] * py
    srs = np.asarray(batch.column("srs").to_pylist())
    for s in set(srs.tolist()):
        raster.check_srs(s)
        tm = raster._tmerc_of(s)
        if tm is not None:  # UTM corners → lonlat → merc
            sel = srs == s
            lon, lat = tm.inverse(wx[sel], wy[sel])
            wx[sel], wy[sel] = tg.lonlat_to_merc(lon, lat)
    deg = srs == "EPSG:4326"
    if deg.any():
        mx, my = tg.lonlat_to_merc(wx[deg], wy[deg])
        wx[deg], wy[deg] = mx, my
    return wx.mean(axis=1), wy.mean(axis=1)


def coverage_index_from_table(coverage_tbl, level=7):
    return geo.CoverageIndex(
        coverage_tbl.column("region_id").to_pylist(),
        coverage_tbl.column("ring_xy").to_pylist(),
        level=level,
    )


class SpatialJoiner:
    """Per-batch callable: image rows → (image_id, region_id) rows.

    ``how``: 'inner' drops unmatched; 'left' keeps them with
    region_id=None; 'semi' returns matched input rows; 'anti' returns
    unmatched input rows. ``knn_eps`` (meters) enables the kNN
    fallback for points missing every polygon by ≤ ε (J3).
    """

    def __init__(self, coverage_tbl, level=7, knn_eps=None, how="inner"):
        self.index = coverage_index_from_table(coverage_tbl, level=level)
        self.knn_eps = knn_eps
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        cx, cy = centroids_merc(batch)
        ordinals = self.index.assign(cx, cy, knn_eps=self.knn_eps)
        matched = ordinals >= 0
        if self.how == "semi":
            return batch.filter(pa.array(matched))
        if self.how == "anti":
            return batch.filter(pa.array(~matched))
        ids = batch.column("image_id").to_pylist()
        if self.how == "inner":
            keep = np.flatnonzero(matched)
            return pa.table(
                {
                    "image_id": pa.array([ids[i] for i in keep], pa.string()),
                    "region_id": pa.array(
                        [self.index.region_ids[int(ordinals[i])] for i in keep],
                        pa.string(),
                    ),
                }
            )
        if self.how == "left":
            return pa.table(
                {
                    "image_id": pa.array(ids, pa.string()),
                    "region_id": pa.array(
                        [
                            self.index.region_ids[int(o)] if o >= 0 else None
                            for o in ordinals
                        ],
                        pa.string(),
                    ),
                }
            )
        raise ValueError(f"unknown how={self.how!r}")


class NearestRegion:
    """Pure kNN stage (J3 standalone): every image row → its k nearest
    region ids by centroid distance (brute force over the broadcast
    centroid array)."""

    def __init__(self, coverage_ref, k=1, level=7):
        if not isinstance(coverage_ref, pa.Table):
            import ray

            coverage_ref = ray.get(coverage_ref)
        self.index = coverage_index_from_table(coverage_ref, level=level)
        self.k = int(k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cx, cy = centroids_merc(batch)
        nn = self.index.knn(cx, cy, k=self.k)
        ids = batch.column("image_id").to_pylist()
        out_ids, out_regs, out_rank = [], [], []
        for i, row in enumerate(nn):
            for r, o in enumerate(row):
                out_ids.append(ids[i])
                out_regs.append(self.index.region_ids[int(o)])
                out_rank.append(r)
        return pa.table(
            {
                "image_id": pa.array(out_ids, pa.string()),
                "region_id": pa.array(out_regs, pa.string()),
                "rank": pa.array(out_rank, pa.int32()),
            }
        )


def spatial_join(images_ds, coverage_tbl, *, level=7, knn_eps=None, how="inner"):
    """images Dataset ⋈ coverage table (broadcast). Returns a Dataset.
    Plain tasks fused with the image read; each worker builds the
    :class:`SpatialJoiner` (its quadtree cell index) once through
    ``ops.worker_cached``, so no actor pool is started."""
    import ray

    ref = ray.put(coverage_tbl)

    def join(batch: pa.Table) -> pa.Table:
        return ops.worker_cached(
            ref, lambda t: SpatialJoiner(t, level=level, knn_eps=knn_eps, how=how)
        )(batch)

    return images_ds.map_batches(join, batch_format="pyarrow", batch_size=2048)


class ZonalStats:
    """Raster×vector ZONAL STATISTICS partials (the classic geospatial
    analytics reduce: per-polygon pixel aggregates over an image
    corpus). Same broadcast discipline as :class:`SpatialJoiner`: the
    coverage table ships once via ``ray.put``; each actor unpacks the
    rings + bboxes ONCE in ``__init__``; every batch then decodes its
    images (per-actor codec state, no shuffle) and rasterizes each
    bbox-overlapping ring into the image's own pixel grid with the
    SAME even-odd fill the cutline path uses (geometry.fill_polygon —
    so zonal masks and cutline masks agree by construction). The batch
    reduces to ≤ one row per region (exact int64 pixel sums) — the
    only thing that leaves the actor; the caller folds partials with
    a coarse-bucket grouped sum. EPSG:3857 axis-aligned affine rows
    only (callers filter; the corpus's 4326 minority rows are skipped
    upstream)."""

    def __init__(self, coverage_ref):
        import ray

        tbl = (
            coverage_ref
            if isinstance(coverage_ref, pa.Table)
            else ray.get(coverage_ref)
        )
        self.regions = []
        for rid, ring in zip(
            tbl.column("region_id").to_pylist(),
            tbl.column("ring_xy").to_pylist(),
        ):
            r = np.asarray(ring, dtype=np.float64)
            self.regions.append(
                (
                    rid,
                    r,
                    r[:, 0].min(),
                    r[:, 1].min(),
                    r[:, 0].max(),
                    r[:, 1].max(),
                )
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        # codecs is imported at MODULE top on purpose: call-time
        # intra-package imports fail on path-less workers (the
        # register_pickle_by_value contract — see pyramid.py note)
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        gts = batch.column("gt").to_pylist()

        acc = {}  # region_id -> [n, sr, sg, sb]
        for i in range(len(ids)):
            gt = gts[i]
            w, h = int(ws[i]), int(hs[i])
            # image bounds in mercator (axis-aligned affine: gt[2]=gt[4]=0)
            x0, x1 = gt[0], gt[0] + gt[1] * w
            y1, y0 = gt[3], gt[3] + gt[5] * h  # gt[5] < 0
            rgba = None
            for rid, ring, rx0, ry0, rx1, ry1 in self.regions:
                if rx1 < x0 or rx0 > x1 or ry1 < y0 or ry0 > y1:
                    continue
                if rgba is None:  # decode at most once per image
                    rgba = codecs.decode_image(blobs[i], fmts[i])
                px = np.stack(
                    [
                        (ring[:, 0] - gt[0]) / gt[1],
                        (ring[:, 1] - gt[3]) / gt[5],
                    ],
                    axis=1,
                )
                mask = geo.fill_polygon_fast(px, h, w) > 0
                sel = mask & (rgba[:, :, 3] > 0)
                n = int(sel.sum())
                if n == 0:
                    continue
                s = acc.setdefault(rid, [0, 0, 0, 0])
                s[0] += n
                px_sum = rgba[sel].astype(np.int64).sum(axis=0)
                s[1] += int(px_sum[0])
                s[2] += int(px_sum[1])
                s[3] += int(px_sum[2])

        rids = sorted(acc)
        return pa.table(
            {
                "region_id": pa.array(rids, pa.string()),
                "n_px": pa.array([acc[r][0] for r in rids], pa.int64()),
                "sum_r": pa.array([acc[r][1] for r in rids], pa.int64()),
                "sum_g": pa.array([acc[r][2] for r in rids], pa.int64()),
                "sum_b": pa.array([acc[r][3] for r in rids], pa.int64()),
            }
        )


def zonal_stats(images_ds, coverage_tbl, *, concurrency=(1, 8)):
    """Per-batch zonal partials (see :class:`ZonalStats`); callers fold
    with a coarse-bucket grouped sum. Returns a Dataset of
    (region_id, n_px, sum_r, sum_g, sum_b)."""
    import ray

    ref = ray.put(coverage_tbl)
    return images_ds.map_batches(
        ZonalStats,
        fn_constructor_kwargs={"coverage_ref": ref},
        batch_format="pyarrow",
        batch_size=512,
        concurrency=concurrency,
        num_cpus=1,
    )
