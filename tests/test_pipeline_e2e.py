"""End-to-end conformance: Ray engine vs golden tiler (SURVEY.md §5.1#2-3).

Gates (BASELINE.json:6,15): tile-key sets exact, pixels byte-equal
(both sides share the per-pixel kernels — agreement validates the
distributed orchestration), captions byte-equal, src_ids (lineage)
equal. Plus properties: salted ≡ unsalted, resume ≡ single run.
"""

import os
import shutil

import numpy as np
import pytest

from tilers_tools_ray import golden
from tilers_tools_ray import tilegrid as tg
from tilers_tools_ray.pipelines import pyramid
from tilers_tools_ray.state import lineage

Z_MIN = 5


@pytest.fixture(scope="module")
def golden_pyramid(tiny_corpus):
    imgs = golden.load_images(tiny_corpus["images"])
    z_base = golden.auto_zoom(imgs)
    return z_base, golden.tile_pyramid(imgs, z_base=z_base, z_min=Z_MIN)


def _tiles_to_dict(df):
    from tilers_tools_ray.stages.tiling import unpack_pixels

    out = {}
    for row in df.itertuples(index=False):
        out[int(row.tile_key)] = (
            unpack_pixels(row.pixels),
            row.caption,
            list(row.src_ids),
        )
    return out


def _assert_level_equal(engine, gold, z):
    ekeys = set(engine)
    gkeys = {k for k in gold if int(tg.unpack_key(k)[0]) == z}
    assert ekeys == gkeys, (
        f"z={z}: tile-key sets differ; engine-only={len(ekeys - gkeys)}, "
        f"golden-only={len(gkeys - ekeys)}"
    )
    for k in sorted(ekeys):
        ep, ec, es = engine[k]
        gp, gc, gs = gold[k]
        assert np.array_equal(ep, gp), f"pixels differ at key {k} (z={z})"
        assert ec == gc, f"caption differs at key {k}"
        assert es == gs, f"src_ids differ at key {k}"


def test_auto_zoom_matches_golden(ray_session, tiny_corpus, golden_pyramid):
    z_base, _ = golden_pyramid
    assert pyramid.auto_zoom(tiny_corpus["images"]) == z_base


def test_base_tiles_match_golden(ray_session, tiny_corpus, golden_pyramid):
    z_base, gold = golden_pyramid
    ds = pyramid.base_tiles(tiny_corpus["images"], z_base=z_base)
    engine = _tiles_to_dict(ds.to_pandas())
    _assert_level_equal(engine, gold, z_base)


def test_salted_equals_unsalted(ray_session, tiny_corpus, golden_pyramid):
    z_base, gold = golden_pyramid
    # salt EVERY part into 3 zorder ranges — worst case for the merge
    z_part = pyramid.default_z_part(z_base)
    census = pyramid.census_parts(tiny_corpus["images"], z_base, z_part)
    assert list(census.columns) == ["part", "n"]
    plan = {int(p): 3 for p in census["part"]}
    ds = pyramid.base_tiles(
        tiny_corpus["images"], z_base=z_base, salt_plan=plan, n_zorder=200
    )
    engine = _tiles_to_dict(ds.to_pandas())
    _assert_level_equal(engine, gold, z_base)


def test_overview_matches_golden(ray_session, tiny_corpus, golden_pyramid, tmp_path):
    z_base, gold = golden_pyramid
    out = str(tmp_path / "one_level")
    pyramid.write_pyramid(
        tiny_corpus["images"], out, z_base=z_base, z_min=z_base - 1, salt=False
    )
    engine = _tiles_to_dict(pyramid.read_tiles(out, z_base - 1).to_pandas())
    _assert_level_equal(engine, gold, z_base - 1)


def test_write_pyramid_and_resume(ray_session, tiny_corpus, golden_pyramid, tmp_path):
    z_base, gold = golden_pyramid
    out_a = str(tmp_path / "run_a")
    summary = pyramid.write_pyramid(
        tiny_corpus["images"], out_a, z_base=z_base, z_min=Z_MIN, salt="auto"
    )
    # every golden level present with matching tiles
    for z in range(z_base, Z_MIN - 1, -1):
        df = pyramid.read_tiles(out_a, z).to_pandas()
        _assert_level_equal(_tiles_to_dict(df), gold, z)
        assert summary[z]["tiles"] == len(df)
    # --- resume: pre-commit a strict subset of base parts, then run ---
    out_b = str(tmp_path / "run_b")
    # a real resume dir carries the original run's job.json; without it
    # check_job_meta refuses (committed levels + unknown grid params)
    os.makedirs(os.path.dirname(lineage.job_meta_path(out_b)), exist_ok=True)
    shutil.copy(lineage.job_meta_path(out_a), lineage.job_meta_path(out_b))
    done = sorted(lineage.done_parts(out_a, z_base))
    subset = done[: max(1, len(done) // 2)]
    for part in subset:
        os.makedirs(lineage.level_dir(out_b, z_base), exist_ok=True)
        os.makedirs(lineage.lineage_dir(out_b, z_base), exist_ok=True)
        shutil.copy(
            lineage.part_parquet_path(out_a, z_base, part),
            lineage.part_parquet_path(out_b, z_base, part),
        )
        shutil.copy(
            lineage.manifest_path(out_a, z_base, part),
            lineage.manifest_path(out_b, z_base, part),
        )
    pyramid.write_pyramid(
        tiny_corpus["images"], out_b, z_base=z_base, z_min=Z_MIN, salt=None
    )
    for z in range(z_base, Z_MIN - 1, -1):
        a = pyramid.read_tiles(out_a, z).to_pandas()
        b = pyramid.read_tiles(out_b, z).to_pandas()
        _assert_level_equal(_tiles_to_dict(b), _tiles_to_dict(a), z)


def test_cascade_level_resume(ray_session, tiny_corpus, golden_pyramid, tmp_path):
    """Deleting one overview level's partitions + markers and re-running
    repairs the pyramid exactly (anchor-granularity cascade resume)."""
    import glob

    z_base, gold = golden_pyramid
    out = str(tmp_path / "run_c")
    pyramid.write_pyramid(
        tiny_corpus["images"], out, z_base=z_base, z_min=Z_MIN, salt=None
    )
    victim_z = z_base - 2
    before = pyramid.read_tiles(out, victim_z).to_pandas()
    for f in glob.glob(os.path.join(lineage.level_dir(out, victim_z), "*")):
        os.remove(f)
    for f in glob.glob(os.path.join(lineage.lineage_dir(out, victim_z), "*")):
        os.remove(f)
    pyramid.write_pyramid(
        tiny_corpus["images"], out, z_base=z_base, z_min=Z_MIN, salt=None
    )
    after = pyramid.read_tiles(out, victim_z).to_pandas()
    _assert_level_equal(_tiles_to_dict(after), _tiles_to_dict(before), victim_z)


def test_overview_resampling_nearest(ray_session, tiny_corpus, tmp_path):
    """--overview-resampling nearest: each parent pixel is the
    top-left child pixel of its 2×2 block (vs the default box mean)."""
    import numpy as np

    from tilers_tools_ray import raster
    from tilers_tools_ray.pipelines import pyramid
    from tilers_tools_ray.stages import tiling

    out = str(tmp_path / "nn_pyr")
    s = pyramid.write_pyramid(
        tiny_corpus["images"], out, z_min=None or 7, salt=False,
        overview_resampling="nearest",
    )
    zs = sorted(s)
    z_hi, z_lo = zs[-1], zs[-2]
    base = pyramid.read_tiles(out, z=z_hi).to_pandas()
    over = pyramid.read_tiles(out, z=z_lo).to_pandas().set_index(["x", "y"])
    kids = {}
    for row in base.itertuples(index=False):
        kids.setdefault((row.x >> 1, row.y >> 1), {})[
            (row.x & 1, row.y & 1)
        ] = tiling.unpack_pixels(row.pixels)
    checked = 0
    for (px, py), ch in kids.items():
        expect = raster.downsample_children(ch, mode="nearest")
        got = tiling.unpack_pixels(over.loc[(px, py), "pixels"])
        assert np.array_equal(got, expect)
        checked += 1
    assert checked > 0


def test_overview_resampling_bilinear(ray_session, tiny_corpus, tmp_path):
    """--overview-resampling bilinear: PIL-style 4-tap (1,3,3,1)/8
    separable tent, edge-clamped — distinct from box and nearest."""
    import numpy as np

    from tilers_tools_ray import raster
    from tilers_tools_ray.pipelines import pyramid
    from tilers_tools_ray.stages import tiling

    out = str(tmp_path / "bl_pyr")
    s = pyramid.write_pyramid(
        tiny_corpus["images"], out, z_min=None or 7, salt=False,
        overview_resampling="bilinear",
    )
    zs = sorted(s)
    z_hi, z_lo = zs[-1], zs[-2]
    base = pyramid.read_tiles(out, z=z_hi).to_pandas()
    over = pyramid.read_tiles(out, z=z_lo).to_pandas().set_index(["x", "y"])
    kids = {}
    for row in base.itertuples(index=False):
        kids.setdefault((row.x >> 1, row.y >> 1), {})[
            (row.x & 1, row.y & 1)
        ] = tiling.unpack_pixels(row.pixels)
    checked = differs = 0
    for (px, py), ch in kids.items():
        expect = raster.downsample_children(ch, mode="bilinear")
        got = tiling.unpack_pixels(over.loc[(px, py), "pixels"])
        assert np.array_equal(got, expect)
        if not np.array_equal(expect, raster.downsample_children(ch, mode="box")):
            differs += 1
        checked += 1
    assert checked > 0 and differs > 0


def test_bilinear_downsample_kernel_math():
    """Closed-form check of the (1,3,3,1)/8 tent on a delta image, and
    flat-field preservation (kernel sums to 1, edge clamp included)."""
    import numpy as np

    from tilers_tools_ray import raster

    tile = np.zeros((256, 256, 4), dtype=np.uint8)
    flat = {(dx, dy): np.full((256, 256, 4), 200, np.uint8) for dx in (0, 1) for dy in (0, 1)}
    out = raster.downsample_children(flat, mode="bilinear")
    assert (out == 200).all()
    # delta at mosaic position (10, 10) → parent (5, 5) block: weights
    # (3*3, 3*1; 1*3, 1*1)/64 land at parents (4..5, 4..5)
    d = {(0, 0): tile.copy()}
    d[(0, 0)][10, 10, 0] = 64
    out = raster.downsample_children(d, mode="bilinear")
    # source index 10 is tap p[2i+2] for i=4 (w=3) and p[2i] for i=5 (w=1)
    assert out[5, 5, 0] == round(64 * 9 / 64)
    assert out[5, 4, 0] == round(64 * 3 / 64) and out[4, 5, 0] == round(64 * 3 / 64)
    assert out[4, 4, 0] == round(64 * 1 / 64)


def test_lanczos_downsample_kernel_math():
    """Scaled Lanczos-3 ×2 shrink: flat-field preservation, exact
    linear-ramp reproduction (symmetric 12-tap kernel has zero first
    moment), and distinctness from box on high-frequency content."""
    import numpy as np

    from tilers_tools_ray import raster

    flat = {
        (dx, dy): np.full((256, 256, 4), 137, np.uint8)
        for dx in (0, 1)
        for dy in (0, 1)
    }
    out = raster.downsample_children(flat, mode="lanczos")
    assert (out == 137).all()
    # true linear ramp along x: out col i centers at mosaic 2i+0.5
    v = np.minimum(np.arange(512), 255).astype(np.uint8)
    grad = np.tile(v[None, :, None], (512, 1, 4))
    kids = {
        (dx, dy): grad[dy * 256 : (dy + 1) * 256, dx * 256 : (dx + 1) * 256].copy()
        for dx in (0, 1)
        for dy in (0, 1)
    }
    lz = raster.downsample_children(kids, mode="lanczos").astype(int)
    expect = np.minimum(2 * np.arange(256) + 1, 255)
    assert np.abs(lz[8:-8, 8:120, 0] - expect[None, 8:120]).max() <= 1
    # checkerboard (pure Nyquist): box averages to the midpoint
    # everywhere; lanczos must differ somewhere (nonzero Nyquist leak)
    cb = (np.indices((512, 512)).sum(0) % 2 * 255).astype(np.uint8)
    cbm = np.repeat(cb[:, :, None], 4, axis=2)
    kids = {
        (dx, dy): cbm[dy * 256 : (dy + 1) * 256, dx * 256 : (dx + 1) * 256].copy()
        for dx in (0, 1)
        for dy in (0, 1)
    }
    lz = raster.downsample_children(kids, mode="lanczos")
    bx = raster.downsample_children(kids, mode="box")
    assert not np.array_equal(lz, bx)


def test_box_downsample_equals_mosaic_form():
    """The per-quadrant box kernel equals the box filter of the 512×512
    uint16 mosaic byte for byte, with 1, 2, 3 and 4 children present
    (random pixels, and an all-255 child at the uint16 sum's top)."""
    from tilers_tools_ray import raster

    rng = np.random.default_rng(15)
    quads = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for n in (1, 2, 3, 4):
        for trial in range(3):
            kids = {
                quads[i]: rng.integers(0, 256, (256, 256, 4), dtype=np.uint8)
                for i in rng.choice(4, size=n, replace=False)
            }
            if trial == 0:
                kids[next(iter(kids))] = np.full((256, 256, 4), 255, np.uint8)
            mosaic = np.zeros((512, 512, 4), np.uint16)
            for (dx, dy), px in kids.items():
                mosaic[dy * 256 : (dy + 1) * 256, dx * 256 : (dx + 1) * 256] = px
            s = mosaic[0::2, 0::2] + mosaic[0::2, 1::2] + mosaic[1::2, 0::2] + mosaic[1::2, 1::2]
            want = ((s + 2) >> 2).astype(np.uint8)
            assert np.array_equal(raster.downsample_children(kids, "box"), want), (n, trial)


def test_overview_resampling_lanczos(ray_session, tiny_corpus, tmp_path):
    """--overview-resampling lanczos end-to-end: every parent tile
    equals the 12-tap scaled Lanczos-3 reduction of its children."""
    import numpy as np

    from tilers_tools_ray import raster
    from tilers_tools_ray.pipelines import pyramid
    from tilers_tools_ray.stages import tiling

    out = str(tmp_path / "lz_pyr")
    s = pyramid.write_pyramid(
        tiny_corpus["images"], out, z_min=None or 7, salt=False,
        overview_resampling="lanczos",
    )
    zs = sorted(s)
    z_hi, z_lo = zs[-1], zs[-2]
    base = pyramid.read_tiles(out, z=z_hi).to_pandas()
    over = pyramid.read_tiles(out, z=z_lo).to_pandas().set_index(["x", "y"])
    kids = {}
    for row in base.itertuples(index=False):
        kids.setdefault((row.x >> 1, row.y >> 1), {})[
            (row.x & 1, row.y & 1)
        ] = tiling.unpack_pixels(row.pixels)
    checked = differs = 0
    for (px, py), ch in kids.items():
        expect = raster.downsample_children(ch, mode="lanczos")
        got = tiling.unpack_pixels(over.loc[(px, py), "pixels"])
        assert np.array_equal(got, expect)
        if not np.array_equal(expect, raster.downsample_children(ch, mode="box")):
            differs += 1
        checked += 1
    assert checked > 0 and differs > 0


def test_on_bad_image_skip(ray_session, tmp_path):
    """A corrupt blob must not kill the job when on_bad_image='skip':
    the build completes, records the skipped image's id and reason in
    the lineage tree, and its tiles equal a build over the corpus
    WITHOUT the bad row; the default policy still raises. A salted
    skipping build commits every base part under its own id (part ids
    are 64-bit tile keys, which a float column would merge) and equals
    the clean build level by level."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from tilers_tools_ray import corpus
    from tilers_tools_ray.pipelines import pyramid, tileset

    paths = corpus.generate(str(tmp_path / "corpus"), n_rows=20, seed=55)
    t = pq.read_table(paths["images"])
    # corrupt row 3's bytes (keep fmt so the decoder actually runs)
    blobs = t.column("bytes").to_pylist()
    blobs[3] = b"\x00corrupt\xff"
    bad = t.set_column(
        t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary())
    )
    bad_path = str(tmp_path / "bad.parquet")
    pq.write_table(bad, bad_path)
    clean = t.take([i for i in range(t.num_rows) if i != 3])
    clean_path = str(tmp_path / "clean.parquet")
    pq.write_table(clean, clean_path)

    with pytest.raises(Exception):
        pyramid.write_pyramid(
            bad_path, str(tmp_path / "pyr_raise"), z_min=6, salt=False
        )

    pyramid.write_pyramid(
        bad_path, str(tmp_path / "pyr_skip"), z_min=6, salt=False,
        on_bad_image="skip",
    )
    from tilers_tools_ray import codecs

    with pytest.raises(Exception) as why:
        codecs.decode_image(blobs[3], t.column("fmt")[3].as_py())
    assert lineage.read_record(str(tmp_path / "pyr_skip"), "skipped_images") == {
        t.column("image_id")[3].as_py(): f"{type(why.value).__name__}: {why.value}"
    }
    pyramid.write_pyramid(
        clean_path, str(tmp_path / "pyr_clean"), z_min=6, salt=False
    )
    d = tileset.diff_tilesets(
        pyramid.read_tiles(str(tmp_path / "pyr_skip")),
        pyramid.read_tiles(str(tmp_path / "pyr_clean")),
    ).to_pandas()
    assert len(d) == 0, d.head()

    salted = str(tmp_path / "pyr_skip_salted")
    pyramid.write_pyramid(
        bad_path, salted, z_min=6, salt="auto", salt_threshold=4,
        salt_target=2, on_bad_image="skip",
    )
    assert max(lineage.read_record(salted, "salt_plan")["plan"].values()) > 1
    z_base = max(lineage.job_summary(salted))
    keys = pyramid.read_tiles(salted, z=z_base, columns=["tile_key"]).to_pandas()
    assert lineage.done_parts(salted, z_base) == set(
        pyramid.tiling.part_of_key(keys["tile_key"].to_numpy(), pyramid.default_z_part(z_base)).tolist()
    )

    def levels(out):
        return {
            z: (s["parts"], s["tiles"], s["checksum_xor"])
            for z, s in lineage.job_summary(out).items()
        }

    assert levels(salted) == levels(str(tmp_path / "pyr_clean"))
