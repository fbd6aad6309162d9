"""The benchmark's checks pass on correct output and fail on planted
faults: one flipped pixel, one dropped tile, one wrong query row.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root
(no Ray session needed: pyramids here come from the sequential golden
tiler).
"""

from __future__ import annotations

import os
import sys
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[0:0] = [os.path.dirname(HERE), ROOT, os.path.join(ROOT, "tools")]

import checks  # noqa: E402
from tilers_tools_ray import corpus, golden, raster  # noqa: E402
from tilers_tools_ray import tilegrid as tg  # noqa: E402

SEED = 5
Z_SPAN = 3


def _levels_from(pyr):
    """Golden {key: (pixels, caption, src_ids)} → committed-tile tables."""
    rows = {}
    for key, (pix, cap, src) in sorted(pyr.items()):
        z, x, y = (int(v) for v in tg.unpack_key(key))
        raw = np.ascontiguousarray(pix).tobytes()
        r = rows.setdefault(z, {k: [] for k in ("part", "tile_key", "z", "x", "y",
                                                 "pixels", "caption", "src_ids", "checksum")})
        for k, v in (("part", 0), ("tile_key", key), ("z", z), ("x", x), ("y", y),
                     ("pixels", zlib.compress(raw, 1)), ("caption", cap),
                     ("src_ids", list(src)), ("checksum", zlib.crc32(raw))):
            r[k].append(v)
    return {z: pa.table(r) for z, r in rows.items()}


@pytest.fixture(scope="module")
def pyramid():
    hot_pts, hot_w = corpus.hotspots(SEED)
    table = corpus.rows_to_table([corpus.gen_row(i, SEED, hot_pts, hot_w) for i in range(10)])
    z_base = golden.auto_zoom(table)
    pyr = golden.tile_pyramid(table, z_base=z_base, z_min=z_base - Z_SPAN)
    return pyr, z_base, z_base - Z_SPAN


def _replace_tile(levels, z, i, pixels):
    tbl = levels[z]
    col = tbl.column("pixels").to_pylist()
    col[i] = zlib.compress(np.ascontiguousarray(pixels).tobytes(), 1)
    out = dict(levels)
    out[z] = tbl.set_column(tbl.schema.get_field_index("pixels"), "pixels", pa.array(col))
    return out


def _flip_one_pixel(levels, z, i):
    px = checks.unpack(levels[z].column("pixels")[i].as_py()).copy()
    px[7, 9, 1] ^= 0x40
    return _replace_tile(levels, z, i, px)


def _all_parents(levels, z_base, z_min):
    return [(z, x, y) for z in range(z_min, z_base)
            for x, y in zip(levels[z].column("x").to_pylist(), levels[z].column("y").to_pylist())]


def test_checks_pass_on_correct_pyramid(pyramid):
    pyr, zb, zm = pyramid
    levels = _levels_from(pyr)
    assert checks.check_golden(levels, pyr) == []
    assert checks.check_checksums(levels) == []
    assert checks.check_parents(levels, zb, zm) == []
    assert checks.check_box(levels, _all_parents(levels, zb, zm)) == []
    assert checks.check_same_rollup(levels, _levels_from(pyr)) == []


def test_flipped_pixel_fails_every_pixel_check(pyramid):
    pyr, zb, zm = pyramid
    levels = _levels_from(pyr)
    bad = _flip_one_pixel(levels, zm + 1, 0)
    assert checks.check_golden(bad, pyr)
    assert checks.check_checksums(bad)
    assert checks.check_box(bad, _all_parents(bad, zb, zm))


def test_flipped_pixel_changes_the_resume_rollup(pyramid):
    pyr, zb, zm = pyramid
    levels = _levels_from(pyr)
    bad = dict(levels)
    tbl = levels[zb]
    chk = tbl.column("checksum").to_pylist()
    chk[0] ^= 1  # a resumed tile whose pixels (and so checksum) differ
    bad[zb] = tbl.set_column(tbl.schema.get_field_index("checksum"), "checksum",
                             pa.array(chk, pa.int64()))
    assert checks.check_same_rollup(levels, bad)


def test_dropped_tile_fails(pyramid):
    pyr, zb, zm = pyramid
    levels = _levels_from(pyr)
    bad = dict(levels)
    bad[zm + 1] = levels[zm + 1].slice(1)
    assert checks.check_golden(bad, pyr)
    assert checks.check_parents(bad, zb, zm)
    assert checks.check_same_rollup(levels, bad)


def test_lanczos_reimplementation_matches_and_catches_a_flip(pyramid):
    pyr, zb, zm = pyramid
    levels = _levels_from(pyr)
    x, y = levels[zb - 1].column("x")[0].as_py(), levels[zb - 1].column("y")[0].as_py()
    kids = checks.children_of(levels, zb - 1, x, y)
    got = raster.downsample_children(kids, "lanczos")
    own = checks.lanczos_parent(kids)
    assert np.abs(got.astype(int) - own.astype(int)).max() <= 1
    got[3, 3, 0] ^= 0x40
    assert np.abs(got.astype(int) - own.astype(int)).max() > 1


def test_wrong_query_row_fails():
    want = pd.DataFrame({"n_name": ["NATION_0", "NATION_1"], "revenue": [10.5, 20.25]})
    assert checks.check_frame(want.copy(), want) == []
    wrong = want.copy()
    wrong.loc[1, "revenue"] = 20.26
    assert checks.check_frame(wrong, want)
    assert checks.check_frame(want.iloc[:1], want)


def test_wrong_region_count_fails():
    rows = [("img-1", "reg-0001"), ("img-2", "reg-0001"), ("img-3", "reg-0002")]
    got = pd.DataFrame({"region_id": ["reg-0001", "reg-0002"], "n_images": [2, 1]})
    assert checks.check_region_counts(got, rows) == []
    got.loc[0, "n_images"] = 3
    assert checks.check_region_counts(got, rows)
