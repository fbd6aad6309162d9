"""Tests: SQLite tile-DB roundtrip, multimodal stages, KML reader."""

import numpy as np
import pyarrow as pa
import pytest

from tilers_tools_ray import codecs
from tilers_tools_ray.sources import tiledb
from tilers_tools_ray.stages import georef, multimodal, tiling


def _tiles_ds(n=12):
    import ray.data as rd

    from tilers_tools_ray import tilegrid as tg

    items = []
    rng = np.random.default_rng(5)
    for i in range(n):
        px = rng.integers(0, 256, (256, 256, 4)).astype(np.uint8)
        px[:, :, 3] = 255
        z, x, y = 6, 10 + i, 20
        items.append(
            {
                "tile_key": int(tg.pack_key(z, x, y)),
                "z": z,
                "x": x,
                "y": y,
                "pixels": tiling.pack_pixels(px),
                "caption": f"t{i}",
                "src_ids": [f"img-{i}"],
                "checksum": 0,
                "part": 0,
            }
        )
    return rd.from_items(items)


def test_sqlite_roundtrip(ray_session, tmp_path):
    ds = _tiles_ds()
    db = str(tmp_path / "tiles.db")
    n = tiledb.export_sqlite(ds, db, fmt="png")
    assert n == 12
    back = tiledb.read_sqlite(db)
    df = back.to_pandas()
    assert sorted(df["tile_key"]) == sorted(ds.to_pandas()["tile_key"])
    orig = {
        r["tile_key"]: tiling.unpack_pixels(r["pixels"]) for r in ds.take_all()
    }
    for row in df.itertuples(index=False):
        px = codecs.decode_image(row.tile_bytes, row.fmt)
        assert np.array_equal(px, orig[row.tile_key])


def test_gdbm_roundtrip(ray_session, tmp_path):
    ds = _tiles_ds()
    db = str(tmp_path / "tiles.gdbm")
    n = tiledb.export_gdbm(ds, db, fmt="png")
    assert n == 12
    back = tiledb.read_gdbm(db)
    df = back.to_pandas()
    assert sorted(df["tile_key"]) == sorted(ds.to_pandas()["tile_key"])
    assert (df["z"] == 6).all()  # zoom round-trips through the +1 key
    orig = {
        r["tile_key"]: tiling.unpack_pixels(r["pixels"]) for r in ds.take_all()
    }
    for row in df.itertuples(index=False):
        px = codecs.decode_image(row.tile_bytes, row.fmt)
        assert np.array_equal(px, orig[row.tile_key])


def test_gdbm_rejects_corrupt_key(ray_session, tmp_path):
    import dbm

    db = str(tmp_path / "bad.gdbm")
    with dbm.open(db, "n") as d:
        d[b"meta:fmt"] = b"png"
        d[b"shortkey"] = b"blob"
    with pytest.raises(ValueError, match="corrupt gdbm tile key"):
        tiledb.read_gdbm(db)


def _images_batch(n=6):
    rows = {"image_id": [], "bytes": [], "fmt": []}
    rng = np.random.default_rng(9)
    for i in range(n):
        px = rng.integers(0, 256, (128, 96, 4)).astype(np.uint8)
        px[:, :, 3] = 255
        rows["image_id"].append(f"img-{i}")
        rows["bytes"].append(codecs.encode_image(px, "png"))
        rows["fmt"].append("png")
    return pa.table(rows)


def test_resize_images_stage():
    out = multimodal.ResizeImages(out_w=32, out_h=32)( _images_batch())
    assert out.num_rows == 6
    for b in out.column("bytes").to_pylist():
        px = codecs.decode_image(b)
        assert px.shape == (32, 32, 4)


def test_image_features_stage():
    out = multimodal.ImageFeatures()(_images_batch())
    feats = out.column("features").to_pylist()
    assert all(len(f) == 6 for f in feats)
    assert all(0.0 <= v <= 1.0 for f in feats for v in f)


KML = """<?xml version="1.0"?>
<kml><GroundOverlay><name>chart-1</name>
<!-- size 400x300 -->
<LatLonBox>
  <north>50.5</north><south>49.25</south>
  <east>9.75</east><west>8.0</west><rotation>0</rotation>
</LatLonBox></GroundOverlay></kml>"""


BSB = """KNP/SC=25000,GD=WGS 84,PR=MERCATOR
REF/1,0,0,50.0,8.0
REF/2,400,0,50.0,9.0
REF/3,400,300,49.5,9.0
REF/4,0,300,49.5,8.0
PLY/1,10,10
PLY/2,390,10
PLY/3,390,290
PLY/4,10,290
"""


def test_bsb_reader():
    gt, srs, ring, datum, poly = georef.parse_georef_any(BSB)
    assert srs == "EPSG:4326" and datum == "WGS 84"
    from tilers_tools_ray import geometry as geo

    wx, wy = geo.apply_gt(gt, np.array([0.0, 400.0]), np.array([0.0, 300.0]))
    np.testing.assert_allclose(wx, [8.0, 9.0], atol=1e-9)
    np.testing.assert_allclose(wy, [50.0, 49.5], atol=1e-9)
    assert ring.shape == (4, 2)
    assert georef.sniff_format(BSB) == "bsb"
    with pytest.raises(ValueError):
        georef.parse_bsb_header("KNP/GD=MARS\nREF/1,0,0,1,1\nREF/2,1,0,1,2\nREF/3,1,1,2,2")


def test_kml_reader_and_registry():
    gt, srs, ring, datum, poly = georef.parse_georef_any(KML)
    assert srs == "EPSG:4326"
    import numpy as np

    from tilers_tools_ray import geometry as geo

    # corner pixel (0,0) → (west, north); (400,300) → (east, south)
    wx, wy = geo.apply_gt(gt, np.array([0.0, 400.0]), np.array([0.0, 300.0]))
    np.testing.assert_allclose(wx, [8.0, 9.75], atol=1e-9)
    np.testing.assert_allclose(wy, [50.5, 49.25], atol=1e-9)
    assert georef.sniff_format("OziExplorer Map Data File Version 2.2\n") == "ozi"
    with pytest.raises(ValueError):
        georef.sniff_format("garbage")
    with pytest.raises(ValueError):
        georef.parse_kml_groundoverlay("<LatLonBox><north>1</north></LatLonBox>")


def test_lance_source_contract():
    """S9: a .lance URI routes to the native Lance scan; with the
    library absent in this sandbox the router raises the documented
    error (parquet with the identical schema is the stand-in)."""
    import pytest

    from tilers_tools_ray.pipelines import pyramid
    from tilers_tools_ray.sources import lance_source

    assert lance_source.is_lance_uri("s3://bucket/images.lance")
    assert lance_source.is_lance_uri("/data/corpus.lance/")
    assert not lance_source.is_lance_uri("/data/images.parquet")
    try:
        import lance  # noqa: F401

        have_lance = True
    except ImportError:
        have_lance = False
    if not have_lance:
        with pytest.raises(ImportError, match="parquet with the identical"):
            pyramid.images_dataset("/tmp/nonexistent.lance")
        with pytest.raises(ImportError, match="parquet with the identical"):
            pyramid.auto_zoom("/tmp/nonexistent.lance")
        with pytest.raises(ImportError, match="parquet with the identical"):
            pyramid.census_parts("/tmp/nonexistent.lance", 10, 6)


def test_image_quality_metrics(ray_session):
    """ImageQuality property pins: a constant image has entropy 0,
    lap_var 0, clip_frac 0 (mid-gray) or 1 (pure white); a noise image
    scores strictly higher entropy and lap_var; metrics are exact on
    hand-computable planes."""
    import numpy as np
    import pyarrow as pa

    from tilers_tools_ray import codecs
    from tilers_tools_ray.stages.multimodal import ImageQuality

    def enc(rgba):
        return codecs.encode_image(rgba, "raw")

    flat = np.full((32, 32, 4), 128, dtype=np.uint8)
    white = np.full((32, 32, 4), 255, dtype=np.uint8)
    rng = np.random.default_rng(5)
    noise = rng.integers(0, 256, (32, 32, 4)).astype(np.uint8)
    batch = pa.table(
        {
            "image_id": pa.array(["flat", "white", "noise"], pa.string()),
            "bytes": pa.array([enc(flat), enc(white), enc(noise)], pa.binary()),
            "fmt": pa.array(["raw"] * 3, pa.string()),
        }
    )
    out = ImageQuality()(batch).to_pandas().set_index("image_id")
    assert out.loc["flat", "entropy"] == 0.0
    assert out.loc["flat", "lap_var"] == 0.0
    assert out.loc["flat", "clip_frac"] == 0.0
    assert out.loc["white", "clip_frac"] == 1.0
    assert out.loc["white", "entropy"] == 0.0
    assert out.loc["noise", "entropy"] > 5.0
    assert out.loc["noise", "lap_var"] > 100.0
