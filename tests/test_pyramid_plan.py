"""write_pyramid's plan and recovery: the input plan (contiguous row
slices of similar size), stateless emitter tasks on 1- and 2-CPU
clusters, the recorded salt plan on resume, the base level's file
exchange (no Ray shuffle and no Ray Data job, stale exchange files never
read, a crash between emission and the first commit resumed exactly),
and the overview cascade (one cascade down to z_min that reads each
committed part file once and nothing else, per-level manifest times,
anchors finer than the read level's parts, repair of a lost level,
refusal of parts committed at another anchor)."""

import os
import shutil
import subprocess
import sys
import textwrap
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from tilers_tools_ray import golden
from tilers_tools_ray import tilegrid as tg
from tilers_tools_ray.pipelines import pyramid
from tilers_tools_ray.state import lineage

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN = 7
#: low enough that the tiny corpus's hottest parts take the salted path
SALT = dict(salt="auto", salt_threshold=24, salt_target=12)


@pytest.fixture(scope="module")
def z_base(tiny_corpus):
    return golden.auto_zoom(golden.load_images(tiny_corpus["images"]))


@pytest.fixture(scope="module")
def gold(tiny_corpus, z_base):
    return golden.tile_pyramid(
        golden.load_images(tiny_corpus["images"]), z_base=z_base, z_min=z_base - SPAN
    )


def _assert_golden(df, gold, z):
    """Tile rows of level ``z`` equal the golden pyramid's."""
    assert set(df["tile_key"]) == {k for k in gold if int(tg.unpack_key(k)[0]) == z}, z
    for row in df.itertuples(index=False):
        gp, gc, gs = gold[int(row.tile_key)]
        assert np.array_equal(pyramid.tiling.unpack_pixels(row.pixels), gp)
        assert (row.caption, list(row.src_ids)) == (gc, gs)


@contextmanager
def logged_part_reads(log):
    """Log every part file the overview cascade reads, one path a line.
    The cascade's tasks bind ``pyramid._read_part`` when the driver
    ships them, so the logging reader runs in the workers and appends
    to a shared file."""
    orig = pyramid._read_part

    def logged(path):
        with open(log, "a") as f:
            f.write(path + "\n")
        return orig(path)

    pyramid._read_part = logged
    try:
        yield
    finally:
        pyramid._read_part = orig


def _read_log(log):
    if not os.path.exists(log):
        return []
    with open(log) as f:
        return sorted(f.read().split())


def _part_paths(out, z):
    return sorted(lineage.part_parquet_path(out, z, p) for p in lineage.done_parts(out, z))


@pytest.fixture(scope="module")
def built(ray_session, tiny_corpus, z_base, tmp_path_factory):
    """One salted build to z_base - 7, logging the cascade's part reads."""
    root = tmp_path_factory.mktemp("plan")
    out, log = str(root / "pyr"), str(root / "reads.log")
    with logged_part_reads(log):
        summary = pyramid.write_pyramid(
            tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT
        )
    return out, summary, _read_log(log)


def _levels(summary):
    return {z: (s["tiles"], s["checksum_xor"]) for z, s in summary.items()}


def _crash_copy(src, dst, z_base, z_min, every=4):
    """``src`` as a crash during its base level leaves it: every
    ``every``-th base part (a quarter by default) and every overview
    level gone."""
    shutil.copytree(src, dst)
    done = sorted(lineage.done_parts(dst, z_base))
    for p in done[::every]:
        os.remove(lineage.part_parquet_path(dst, z_base, p))
        os.remove(lineage.manifest_path(dst, z_base, p))
    os.remove(lineage.level_complete_marker(dst, z_base))
    _drop_overviews(dst, z_base, z_min)


def _drop_overviews(out, z_base, z_min):
    for z in range(z_min, z_base):
        shutil.rmtree(lineage.level_dir(out, z))
        shutil.rmtree(lineage.lineage_dir(out, z))


def test_one_cascade_to_z_min_matches_golden(tiny_corpus, z_base, gold, built):
    """z_min = z_base - 7: the base level fits one anchor cell bound, so
    ONE cascade reads each committed base part file exactly once and
    writes every level, each with its completion marker and its parts at
    the recorded anchor. The exchange dir is gone afterwards."""
    out, summary, reads = built
    z_min = z_base - SPAN
    assert reads == _part_paths(out, z_base)
    assert lineage.read_record(out, "anchors") == {str(z_base): z_min}
    assert lineage.read_record(out, "salt_plan")["plan"]
    assert not os.path.exists(os.path.join(out, "exchange"))
    for z in range(z_min, z_base + 1):
        assert lineage.level_is_complete(out, z)
        _assert_golden(pyramid.read_tiles(out, z).to_pandas(), gold, z)
        if z < z_base:
            parts = np.array(sorted(lineage.done_parts(out, z)), dtype=np.int64)
            assert set(tg.unpack_key(parts)[0].tolist()) == {z_min}


def test_resume_reuses_recorded_salt_plan(tiny_corpus, z_base, built, tmp_path, monkeypatch):
    """A resume with the same (threshold, target, z_part) never runs the
    census, and equals the single run level by level."""
    out, summary, _ = built
    res = str(tmp_path / "resumed")
    _crash_copy(out, res, z_base, z_base - SPAN)

    def no_census(*a, **k):
        raise AssertionError("census_parts ran on a resume with a recorded plan")

    monkeypatch.setattr(pyramid, "census_parts", no_census)
    again = pyramid.write_pyramid(
        tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT
    )
    assert _levels(again) == _levels(summary)


def test_resume_of_one_lost_base_part(tiny_corpus, z_base, built, tmp_path):
    """A resume that lost one base part, where most emitter tasks prune
    every fragment and return empty index tables, equals the single run."""
    out, summary, _ = built
    res = str(tmp_path / "one_lost")
    _crash_copy(out, res, z_base, z_base - SPAN, every=len(lineage.done_parts(out, z_base)))
    assert len(lineage.done_parts(res, z_base)) == summary[z_base]["parts"] - 1
    again = pyramid.write_pyramid(tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT)
    assert _levels(again) == _levels(summary)


def test_changed_salt_threshold_recomputes_plan(tiny_corpus, z_base, built, tmp_path, monkeypatch):
    out, summary, _ = built
    res = str(tmp_path / "rethreshold")
    _crash_copy(out, res, z_base, z_base - SPAN)
    calls = []
    orig = pyramid.census_parts

    def counted(*a, **k):
        calls.append(a)
        return orig(*a, **k)

    monkeypatch.setattr(pyramid, "census_parts", counted)
    kwargs = {**SALT, "salt_threshold": 40}
    again = pyramid.write_pyramid(
        tiny_corpus["images"], res, z_min=z_base - SPAN, **kwargs
    )
    assert len(calls) == 1
    assert lineage.read_record(res, "salt_plan")["key"]["threshold"] == 40
    assert _levels(again) == _levels(summary)


def test_lost_overview_level_is_repaired(tiny_corpus, z_base, built, tmp_path):
    out, summary, _ = built
    res = str(tmp_path / "repaired")
    shutil.copytree(out, res)
    victim = z_base - 3
    shutil.rmtree(lineage.level_dir(res, victim))
    shutil.rmtree(lineage.lineage_dir(res, victim))
    again = pyramid.write_pyramid(
        tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT
    )
    assert _levels(again) == _levels(summary)


def test_cascade_reads_only_manifested_parts(tiny_corpus, z_base, built, tmp_path):
    """An orphan part file with no manifest and a stale ``.tmp.<pid>``
    write in the level the cascade reads: neither is read, and every
    level equals the single run's."""
    out, summary, _ = built
    res = str(tmp_path / "orphans")
    shutil.copytree(out, res)
    _drop_overviews(res, z_base, z_base - SPAN)
    victim = sorted(lineage.done_parts(res, z_base))[0]
    t = pq.read_table(lineage.part_parquet_path(res, z_base, victim))
    # the same tiles moved to the other half of the world: a reader that
    # picked them up would add tiles to every overview level
    z, x, y = tg.unpack_key(t.column("tile_key").to_numpy())
    keys = tg.pack_key(z, x ^ (1 << (z_base - 1)), y)
    assert not set(keys.tolist()) & set(pyramid.read_tiles(res, z_base).to_pandas()["tile_key"])
    stray = t.set_column(t.schema.get_field_index("tile_key"), "tile_key", pa.array(keys, pa.int64()))
    orphan = int(pyramid.tiling.part_of_key(keys[:1], pyramid.default_z_part(z_base))[0])
    pq.write_table(stray, lineage.part_parquet_path(res, z_base, orphan))
    pq.write_table(stray, lineage.part_parquet_path(res, z_base, victim) + ".tmp.4242")
    log = str(tmp_path / "reads.log")
    with logged_part_reads(log):
        again = pyramid.write_pyramid(
            tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT
        )
    assert _read_log(log) == _part_paths(res, z_base)
    assert _levels(again) == _levels(summary)


def _level_tiles(out, z):
    paths = [lineage.part_parquet_path(out, z, p) for p in lineage.done_parts(out, z)]
    t = pa.concat_tables([pq.ParquetFile(p).read() for p in paths]).drop_columns(["part"])
    return t.sort_by("tile_key")


def test_cascade_anchor_finer_than_read_parts(tiny_corpus, z_base, built, tmp_path):
    """A cascade anchored two zooms below the base level, whose parts sit
    four zooms below it, so one base part file spans several anchor
    cells; then a cascade from that anchor to z_min over several part
    files per cell. Every level equals the build anchored at z_min."""
    out, summary, _ = built
    z_min, anchor = z_base - SPAN, z_base - 2
    res = str(tmp_path / "fine")
    shutil.copytree(out, res)
    _drop_overviews(res, z_base, z_min)
    base = lineage.read_manifests(res, z_base)
    assert {int(z) for z in tg.unpack_key(np.fromiter(base, np.int64))[0]} == {
        pyramid.default_z_part(z_base)
    }
    cells = pyramid.tiling.part_of_key(_level_tiles(res, z_base).column("tile_key").to_numpy(), anchor)
    parts = pyramid.tiling.part_of_key(cells, pyramid.default_z_part(z_base))
    assert len(np.unique(cells)) > len(np.unique(parts))  # a part spans cells
    pyramid._write_cascade(res, z_base, anchor, base, "box")
    pyramid._write_cascade(res, anchor, z_min, lineage.read_manifests(res, anchor), "box")
    got, want = lineage.job_summary(res), summary
    for z in range(z_min, z_base):
        assert lineage.level_is_complete(res, z)
        assert _level_tiles(res, z).equals(_level_tiles(out, z)), z
        assert (got[z]["tiles"], got[z]["checksum_xor"]) == (
            want[z]["tiles"], want[z]["checksum_xor"]
        ), z


def test_part_manifest_matches_reference_loop():
    """The vectorized manifest rollups equal the per-tile Python loop on
    an empty table and on one whose tiles share source ids."""
    def reference(t):
        xor = 0
        for c in t.column("checksum").to_pylist():
            xor ^= int(c)
        return xor, len({s for lst in t.column("src_ids").to_pylist() for s in lst})

    rows = [
        (int(tg.pack_key(9, x, 7)), [f"img{x % 3}", "img9"] if x % 2 else [], crc)
        for x, crc in enumerate([0xFFFFFFFF, 0x12345678, 0, 0x80000000, 0xDEADBEEF])
    ]
    full = pa.table(
        {
            "tile_key": pa.array([r[0] for r in rows], pa.int64()),
            "src_ids": pa.array([r[1] for r in rows], pa.list_(pa.string())),
            "checksum": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    for t in (full.slice(0, 0), full, pa.concat_tables([full.slice(0, 2), full.slice(2)])):
        m = pyramid._part_manifest(9, 1, t, 0.0)
        assert (m["checksum_xor"], m["n_inputs"]) == reference(t)
        assert m["n_tiles"] == t.num_rows


def test_resume_refuses_parts_at_another_anchor(tiny_corpus, z_base, built, tmp_path):
    out, _, _ = built
    res = str(tmp_path / "mixed")
    shutil.copytree(out, res)
    z = z_base - 2
    os.remove(lineage.level_complete_marker(res, z))
    stray = int(tg.pack_key(z_base - 4, 0, 0))
    shutil.copy(
        next(iter(sorted(
            os.path.join(lineage.lineage_dir(res, z), f)
            for f in os.listdir(lineage.lineage_dir(res, z))
        ))),
        lineage.manifest_path(res, z, stray),
    )
    with pytest.raises(ValueError, match="anchor mismatch"):
        pyramid.write_pyramid(
            tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT
        )


def test_cascade_anchor_rule():
    """Coarsest zoom ≥ z_min whose largest cell holds ≤ 4096 tiles of
    the level read; exact sums where parts nest in the cell, the part
    count and 4^(z_read - a) as bounds where they do not."""
    z_read = 20
    # 40 full parts (256 tiles) at z=16 in a 5 × 8 block: a z=14 cell
    # holds at most 4 × 4 of them (4096 tiles), a z=13 cell all 40
    parts = {
        int(tg.pack_key(16, 512 + i // 8, 512 + i % 8)): {"n_tiles": 256}
        for i in range(40)
    }
    assert pyramid.cascade_anchor(parts, z_read, 0) == 14
    # 8 sparse parts of 16 tiles: even the z=0 cell holds only 128
    sparse = {
        int(tg.pack_key(16, 4096 * i, 0)): {"n_tiles": 16} for i in range(8)
    }
    assert pyramid.cascade_anchor(sparse, z_read, 0) == 0
    # a part coarser than the candidate zoom bounds it by its own count
    coarse = {int(tg.pack_key(3, 0, 0)): {"n_tiles": 5000}}
    assert pyramid.cascade_anchor(coarse, 14, 5) == 8
    assert pyramid.cascade_anchor({}, z_read, 4) == 4


def test_base_level_runs_no_shuffle(tiny_corpus, z_base, gold, built, tmp_path, monkeypatch):
    """A salted write_pyramid and a salted base_tiles call no Ray
    Dataset groupby, sort or repartition, and equal the single run and
    the golden base level."""

    def shuffle(*a, **k):
        raise AssertionError("a Ray shuffle ran in the pyramid build")

    for name in ("groupby", "sort", "repartition"):
        monkeypatch.setattr(rd.Dataset, name, shuffle)
    out = str(tmp_path / "noshuffle")
    summary = pyramid.write_pyramid(tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT)
    assert _levels(summary) == _levels(built[1])
    plan = {int(p): s for p, s in lineage.read_record(out, "salt_plan")["plan"].items()}
    assert max(plan.values()) > 1
    tiles = pyramid.base_tiles(
        tiny_corpus["images"], z_base=z_base, salt_plan=plan,
        n_zorder=pyramid._image_units(tiny_corpus["images"])[1],
    )
    _assert_golden(tiles.to_pandas(), gold, z_base)


def test_build_starts_no_ray_data_job(tiny_corpus, z_base, built, tmp_path, monkeypatch):
    """A salted fresh write_pyramid and a resume after losing base parts
    call no Ray Data read_parquet, from_items or map_batches (the census,
    the emission, the reduces and the cascade all run as plain Ray
    tasks), and both equal the single run level by level."""

    def data_job(*a, **k):
        raise AssertionError("the pyramid build started a Ray Data job")

    out, res = str(tmp_path / "fresh"), str(tmp_path / "resumed")
    with monkeypatch.context() as m:
        m.setattr(rd, "read_parquet", data_job)
        m.setattr(rd, "from_items", data_job)
        m.setattr(rd.Dataset, "map_batches", data_job)
        fresh = pyramid.write_pyramid(tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT)
        _crash_copy(out, res, z_base, z_base - SPAN)
        again = pyramid.write_pyramid(tiny_corpus["images"], res, z_min=z_base - SPAN, **SALT)
    assert _levels(fresh) == _levels(built[1])
    assert _levels(again) == _levels(built[1])


def test_image_units_deal_whole_row_groups(ray_session, tmp_path, monkeypatch):
    """The input plan deals whole row groups, in input order, into at
    most ``min(4 × CPUs, row groups)`` units, starting a unit where a
    row group's middle row passes the previous unit's share of the rows;
    each unit reads only its own row groups, each once."""
    d = tmp_path / "images"
    d.mkdir()
    ids, start = [], 0
    for name, (n, group) in zip("abc", [(7, 3), (1, 1), (40, 25)]):
        t = pa.table({"image_id": [f"i{start + i:03d}" for i in range(n)],
                      "zorder": pa.array(range(start, start + n), pa.int32())})
        pq.write_table(t, str(d / f"{name}.parquet"), row_group_size=group)
        ids += t.column("image_id").to_pylist()
        start += n
    a, b, c = (str(d / f"{x}.parquet") for x in "abc")
    monkeypatch.setattr(pyramid, "_cluster_cpus", lambda: 1)
    units, n_rows = pyramid._image_units(str(d))
    assert n_rows == len(ids) == 48
    # row groups of 3, 3, 1 | 1 | 25 | 15 rows; shares of 12 rows
    assert units == [[(a, 0), (a, 1), (a, 2), (b, 0)], [(c, 0)], [(c, 1)]]
    got = [t.column("image_id").to_pylist() for u in units for t in pyramid._unit_rows(u, ["image_id"])]
    assert [i for g in got for i in g] == ids
    monkeypatch.setattr(pyramid, "_cluster_cpus", lambda: 4)
    assert pyramid._image_units(str(d)) == (units, 48)  # no row group is split
    assert pyramid._image_units(a) == ([[(a, 0)], [(a, 1)], [(a, 2)]], 7)
    assert pyramid._image_units(b) == ([[(b, 0)]], 1)


def test_cascade_manifests_time_each_level(z_base, built, tmp_path, monkeypatch):
    """Each overview level's manifest ``wall_s`` is that level's own
    work: with every parent reduce slowed by a fixed sleep, a level's
    ``wall_s`` in the cascade of the largest anchor cell is at least its
    tile count times the sleep, and stays below it plus a per-tile
    allowance far smaller than the other levels' sleeps."""
    import time

    sleep, anchor = 0.03, z_base - SPAN
    orig = pyramid.tiling.raster.reduce_parent_group

    def slow(children, mode="box"):
        time.sleep(sleep)
        return orig(children, mode)

    monkeypatch.setattr(pyramid.tiling.raster, "reduce_parent_group", slow)
    out = str(tmp_path / "timed")
    tiles = pyramid._with_part(
        pa.concat_tables([pyramid._read_part(p) for p in _part_paths(built[0], z_base)]), anchor
    )
    cell = np.unique(tiles.column("part").to_numpy(), return_inverse=True)[1]
    group = tiles.filter(pa.array(cell == np.bincount(cell).argmax()))
    commit = pyramid._commit_group_fn(
        out, lambda g: pyramid.tiling._cascade_levels(g, anchor, z_base, "box")
    )
    rows = commit(group).to_pandas().set_index("z")
    assert sorted(rows.index) == list(range(anchor, z_base))
    for z in range(anchor, z_base):
        n = int(rows.loc[z, "n_tiles"])
        wall = lineage.read_manifests(out, z)[int(group.column("part")[0].as_py())]["wall_s"]
        assert n * sleep <= wall + 1e-3 <= n * sleep * 1.5 + 0.05, (z, n, wall)


def test_stale_exchange_file_is_never_read(tiny_corpus, z_base, gold, built, tmp_path):
    """A fragment file left in ``exchange/`` by an earlier run, painting
    a real part's tile opaque white at the highest zorder, is never read:
    the build equals the golden pyramid and the exchange dir is gone."""
    out = str(tmp_path / "stale")
    part = sorted(lineage.done_parts(built[0], z_base))[0]
    key = pq.read_table(lineage.part_parquet_path(built[0], z_base, part)).column("tile_key")[0]
    white = pyramid.tiling.pack_pixels(np.full((256, 256, 4), 255, np.uint8))
    stale = pa.table(
        {"part": [part], "salt": [0], "tile_key": [key.as_py()], "zorder": [2**30],
         "image_id": ["stale"], "caption": ["stale"], "frag": [white]},
        schema=pyramid.tiling.FRAGMENT_SCHEMA,
    )
    os.makedirs(os.path.join(out, "exchange"))
    pq.write_table(stale, os.path.join(out, "exchange", "frags-stale.parquet"))
    summary = pyramid.write_pyramid(tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT)
    assert not os.path.exists(os.path.join(out, "exchange"))
    assert _levels(summary) == _levels(built[1])
    _assert_golden(pyramid.read_tiles(out, z_base).to_pandas(), gold, z_base)


def test_crash_after_emission_resumes_exactly(tiny_corpus, z_base, built, tmp_path, monkeypatch):
    """A build whose reduce fails after emission commits no base part
    and leaves its fragment files; the resume discards them, re-emits,
    and equals the single run level by level."""
    out = str(tmp_path / "crashed")

    def crash(path, row_group):
        raise RuntimeError("reduce crashed")

    with monkeypatch.context() as m:
        m.setattr(pyramid, "_read_fragments", crash)
        with pytest.raises(Exception, match="reduce crashed"):
            pyramid.write_pyramid(tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT)
    assert not lineage.done_parts(out, z_base)
    assert any(f.startswith("frags-") for f in os.listdir(os.path.join(out, "exchange")))
    again = pyramid.write_pyramid(tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT)
    assert _levels(again) == _levels(built[1])
    assert not os.path.exists(os.path.join(out, "exchange"))


def _small_cluster_build_matches_golden(tmp_path, num_cpus):
    """A salted build on a ``num_cpus`` Ray session, in its own process,
    equals the golden pyramid."""
    script = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        import ray
        ray.init(address="local", num_cpus={num_cpus}, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
        from tilers_tools_ray import corpus, golden
        from tilers_tools_ray import tilegrid as tg
        from tilers_tools_ray.pipelines import pyramid
        from tilers_tools_ray.stages.tiling import unpack_pixels
        paths = corpus.generate({str(tmp_path / "c")!r}, n_rows=24, seed=7)
        imgs = golden.load_images(paths["images"])
        zb = golden.auto_zoom(imgs)
        gold = golden.tile_pyramid(imgs, z_base=zb, z_min=zb - 3)
        out = {str(tmp_path / "pyr")!r}
        pyramid.write_pyramid(paths["images"], out, z_min=zb - 3, salt="auto",
                              salt_threshold=8, salt_target=4)
        for z in range(zb - 3, zb + 1):
            df = pyramid.read_tiles(out, z).to_pandas()
            assert set(df["tile_key"]) == {{
                k for k in gold if int(tg.unpack_key(k)[0]) == z}}, z
            for r in df.itertuples(index=False):
                gp, gc, gs = gold[int(r.tile_key)]
                assert np.array_equal(unpack_pixels(r.pixels), gp)
                assert (r.caption, list(r.src_ids)) == (gc, gs)
        ray.shutdown()
        print("GOLDEN-EQUAL")
        """
    )
    env = {**os.environ, "PYTHONPATH": REPO}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "GOLDEN-EQUAL" in proc.stdout


def test_two_cpu_cluster_build_matches_golden(tmp_path):
    """The small-cluster deadlock class: a 2-CPU Ray session finishes a
    salted build (emitter tasks, then one task per exchange unit and one
    merge task per salted part) and its tiles equal the golden pyramid."""
    _small_cluster_build_matches_golden(tmp_path, 2)


def test_one_cpu_cluster_build_matches_golden(tmp_path):
    """The same salted build on a 1-CPU Ray session, where every stage
    shares the one CPU."""
    _small_cluster_build_matches_golden(tmp_path, 1)
