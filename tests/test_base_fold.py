"""The base level's per-tile fold (``tiling.fold_part``) on planted
tiles of one part: over fragments it equals ``raster.reduce_base_group``
tile for tile, and per-salt-range partial folds merged by the same fold
are byte-identical to the one-pass fold."""

import numpy as np
import pyarrow as pa
import pytest

from tilers_tools_ray import raster
from tilers_tools_ray import tilegrid as tg
from tilers_tools_ray.stages import tiling

Z, Z_PART = 10, 6
PART = int(tg.pack_key(Z_PART, 3, 5))


def _key(dx, dy):
    return int(tg.pack_key(Z, (3 << 4) + dx, (5 << 4) + dy))


def _frag(rng, box, alpha=255):
    """A 256×256 RGBA fragment, random colour inside ``box`` (x0, y0,
    x1, y1) with ``alpha`` there, transparent elsewhere."""
    px = np.zeros((256, 256, 4), np.uint8)
    x0, y0, x1, y1 = box
    px[y0:y1, x0:x1, :3] = rng.integers(0, 256, (y1 - y0, x1 - x0, 3))
    px[y0:y1, x0:x1, 3] = alpha
    return px


def _planted():
    """(tile_key, zorder, image_id, caption, pixels) fragments:
    a single-source tile; three overlapping binary-alpha fragments where
    ``img-b`` (zorder 0) and ``img-a`` (zorder 7) tie on coverage, so the
    smaller id ``img-a`` owns the caption although it is not first; a
    tile with four fragments across every salt range."""
    rng = np.random.default_rng(3)
    return [
        (_key(0, 0), 4, "img-d", "single", _frag(rng, (10, 20, 200, 230))),
        (_key(1, 0), 0, "img-b", "cap-b", _frag(rng, (0, 0, 100, 50))),
        (_key(1, 0), 5, "img-c", "cap-c", _frag(rng, (40, 30, 90, 80))),
        (_key(1, 0), 7, "img-a", "cap-a", _frag(rng, (60, 20, 110, 120))),
        (_key(2, 3), 1, "img-e", "cap-e", _frag(rng, (0, 0, 256, 128))),
        (_key(2, 3), 3, "img-f", "cap-f", _frag(rng, (0, 64, 256, 192))),
        (_key(2, 3), 6, "img-g", "cap-g", _frag(rng, (0, 0, 32, 256))),
        (_key(2, 3), 8, "img-h", "cap-h", _frag(rng, (100, 100, 256, 256))),
    ]


def _fragment_rows(frags, salts=None):
    return pa.table(
        {
            "part": [PART] * len(frags),
            "salt": [0] * len(frags) if salts is None else [salts(f[1]) for f in frags],
            "tile_key": [f[0] for f in frags],
            "zorder": [f[1] for f in frags],
            "image_id": [f[2] for f in frags],
            "caption": [f[3] for f in frags],
            "frag": [tiling.pack_pixels(f[4]) for f in frags],
        },
        schema=tiling.FRAGMENT_SCHEMA,
    )


def _assert_matches_reference(tiles, frags):
    """Tile rows equal ``raster.reduce_base_group`` of each tile's
    fragments in pixels, caption, src_ids and checksum."""
    per_tile = {}
    for key, zo, iid, cap, px in frags:
        per_tile.setdefault(key, []).append((zo, iid, cap, px))
    assert tiles.column("tile_key").to_pylist() == sorted(per_tile)
    assert set(tiles.column("part").to_pylist()) == {PART}
    for row in tiles.to_pylist():
        pixels, caption, src_ids = raster.reduce_base_group(per_tile[row["tile_key"]])
        assert np.array_equal(tiling.unpack_pixels(row["pixels"]), pixels)
        assert (row["caption"], row["src_ids"]) == (caption, src_ids)
        assert row["checksum"] == raster.tile_checksum(pixels)
        assert (row["z"], row["x"], row["y"]) == tuple(int(v) for v in tg.unpack_key(row["tile_key"]))


def _salted(frags, n_salt, n_zorder=9):
    """Partial folds of each salt range, in shuffled range order, then
    the same fold over them."""
    salt = lambda zo: zo * n_salt // n_zorder
    rows = _fragment_rows(frags, salt)
    partials = []
    for s in sorted(set(rows.column("salt").to_pylist()), reverse=True):
        part = tiling.fold_part(rows.filter(pa.compute.equal(rows.column("salt"), s)), partial=True)
        assert part.schema == tiling.PARTIAL_SCHEMA
        assert set(part.column("salt").to_pylist()) == {s}
        partials.append(part)
    return tiling.fold_part(pa.concat_tables(partials))


def test_fold_over_fragments_matches_reference():
    frags = _planted()
    tiles = tiling.fold_part(_fragment_rows(frags))
    assert tiles.schema == tiling.TILE_SCHEMA
    _assert_matches_reference(tiles, frags)
    captions = dict(zip(tiles.column("tile_key").to_pylist(), tiles.column("caption").to_pylist()))
    assert captions[_key(1, 0)] == "cap-a"  # coverage tie → smallest id
    # a single-source tile passes its packed buffer through unchanged
    single = tiles.filter(pa.compute.equal(tiles.column("tile_key"), _key(0, 0)))
    assert single.column("pixels")[0].as_py() == tiling.pack_pixels(frags[0][4])


def test_fold_over_two_spill_tables_in_shuffled_order():
    """Fragments that arrive from two spill files, each in its own row
    order, fold to the same bytes as one sorted table."""
    frags = _planted()
    rng = np.random.default_rng(11)
    order = rng.permutation(len(frags))
    a, b = order[: len(order) // 2], order[len(order) // 2 :]
    spilled = pa.concat_tables([_fragment_rows([frags[i] for i in a]),
                                _fragment_rows([frags[i] for i in b])])
    assert tiling.fold_part(spilled).equals(tiling.fold_part(_fragment_rows(frags)))
    _assert_matches_reference(tiling.fold_part(spilled), frags)


@pytest.mark.parametrize("n_salt", [2, 3, 9])
def test_salted_partials_merge_to_the_one_pass_fold(n_salt):
    """Per-salt-range partial folds, merged in salt order by the same
    fold, are byte-identical to the one-pass fold (binary alpha), the
    coverage tie across ranges included."""
    frags = _planted()
    assert _salted(frags, n_salt).equals(tiling.fold_part(_fragment_rows(frags)))


def test_fractional_alpha_tile_on_the_unsalted_path():
    """A tile whose fragments carry fractional alpha (bilinear edges)
    takes the OVER composite; the unsalted fold equals the reference."""
    rng = np.random.default_rng(5)
    frags = [
        (_key(4, 4), 2, "img-p", "cap-p", _frag(rng, (0, 0, 160, 160), alpha=255)),
        (_key(4, 4), 3, "img-q", "cap-q", _frag(rng, (64, 64, 256, 256), alpha=128)),
        (_key(4, 4), 9, "img-r", "cap-r", _frag(rng, (32, 96, 200, 180), alpha=37)),
    ]
    tiles = tiling.fold_part(_fragment_rows(frags))
    _assert_matches_reference(tiles, frags)
