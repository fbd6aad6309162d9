"""write_pyramid's plan and recovery: stateless emitter tasks on a small
cluster, the recorded salt plan on resume, and the overview cascade
anchors (one cascade down to z_min, repair of a lost level, refusal of
parts committed at another anchor)."""

import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

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
def built(ray_session, tiny_corpus, z_base, tmp_path_factory):
    """One salted build to z_base - 7, counting the level reads."""
    out = str(tmp_path_factory.mktemp("plan") / "pyr")
    reads = []
    orig = pyramid._read_level

    def counted(out_dir, z, columns=None):
        reads.append(z)
        return orig(out_dir, z, columns)

    pyramid._read_level = counted
    try:
        summary = pyramid.write_pyramid(
            tiny_corpus["images"], out, z_min=z_base - SPAN, **SALT
        )
    finally:
        pyramid._read_level = orig
    return out, summary, reads


def _levels(summary):
    return {z: (s["tiles"], s["checksum_xor"]) for z, s in summary.items()}


def _crash_copy(src, dst, z_base, z_min):
    """``src`` as a crash during its base level leaves it: a quarter of
    the base parts and every overview level gone."""
    shutil.copytree(src, dst)
    done = sorted(lineage.done_parts(dst, z_base))
    for p in done[:: 4]:
        os.remove(lineage.part_parquet_path(dst, z_base, p))
        os.remove(lineage.manifest_path(dst, z_base, p))
    os.remove(lineage.level_complete_marker(dst, z_base))
    for z in range(z_min, z_base):
        shutil.rmtree(lineage.level_dir(dst, z))
        shutil.rmtree(lineage.lineage_dir(dst, z))


def test_one_cascade_to_z_min_matches_golden(tiny_corpus, z_base, built):
    """z_min = z_base - 7: the base level fits one anchor cell bound, so
    ONE cascade reads the base level once and writes every level, each
    with its completion marker and its parts at the recorded anchor."""
    out, summary, reads = built
    z_min = z_base - SPAN
    assert reads == [z_base]
    assert lineage.read_record(out, "anchors") == {str(z_base): z_min}
    assert lineage.read_record(out, "salt_plan")["plan"]
    gold = golden.tile_pyramid(
        golden.load_images(tiny_corpus["images"]), z_base=z_base, z_min=z_min
    )
    for z in range(z_min, z_base + 1):
        assert lineage.level_is_complete(out, z)
        gkeys = {k for k in gold if int(tg.unpack_key(k)[0]) == z}
        df = pyramid.read_tiles(out, z).to_pandas()
        assert set(df["tile_key"]) == gkeys
        for row in df.itertuples(index=False):
            gp, gc, gs = gold[int(row.tile_key)]
            assert np.array_equal(pyramid.tiling.unpack_pixels(row.pixels), gp)
            assert (row.caption, list(row.src_ids)) == (gc, gs)
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


def test_two_cpu_cluster_build_matches_golden(tmp_path):
    """The small-cluster deadlock class: a 2-CPU Ray session finishes a
    salted build (emitter tasks ahead of two groupby reduces) and its
    tiles equal the golden pyramid. Runs in its own process, with its
    own Ray session."""
    script = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
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
