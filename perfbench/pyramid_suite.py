"""pyramid_nearest: a fresh checkpointed build, then a resume after a
crash during the base level; both checked apart from the engine.

The corpus is ``corpus.generate`` at the run's seed (96 mixed-codec
images with cutlines around Zipf hotspots). The build uses the mercator
grid, nearest base resampling, box overviews and ``salt="auto"`` with a
threshold low enough that the hottest census parts take the salted
partial→merge path. ``z_min = z_base - 7`` so the per-level top loop
runs after the overview cascade.
"""

from __future__ import annotations

import inspect
import os
import shutil
import sys
import time
from contextlib import contextmanager

import numpy as np
import pyarrow.parquet as pq

import checks
import inputs

SALT_THRESHOLD = 24
SALT_TARGET = 12
Z_SPAN = 7
#: overview tiles whose box filter is re-computed per round
BOX_SAMPLE = 12
BUILD_TIMEOUT_S = 120.0


def build_kwargs(z_base):
    return dict(
        z_min=z_base - Z_SPAN,
        resampling="nearest",
        overview_resampling="box",
        salt="auto",
        salt_threshold=SALT_THRESHOLD,
        salt_target=SALT_TARGET,
    )


class PyramidNearest:
    def __init__(self, run, tracer, seed, traced):
        self.run = run
        self.tracer = tracer
        self.traced = traced
        self.seed = seed
        self.golden = None
        self.rounds = []
        self.walls = []

    # -- set-up --------------------------------------------------------
    def setup(self, inputs_root):
        self.paths = inputs.corpus_paths(inputs_root, self.seed)

    def load(self):
        from tilers_tools_ray import golden

        self.table = pq.read_table(self.paths["images"])
        self.z_base = golden.auto_zoom(self.table)
        self.z_min = self.z_base - Z_SPAN

    # -- timed calls -----------------------------------------------------
    def _build(self, out, span, **span_attrs):
        from tilers_tools_ray.pipelines import pyramid

        prefix = span.split(".")[0]
        t_wall, t_mono = time.time(), time.monotonic()
        with self.tracer.span(span, **span_attrs) as attrs, self._stage_spans(prefix), \
                self.run.op(BUILD_TIMEOUT_S):
            pyramid.write_pyramid(self.paths["images"], out, **build_kwargs(self.z_base))
        wall = time.monotonic() - t_mono
        if self.traced:
            self._level_spans(out, prefix, t_wall, t_mono, attrs)
        return wall

    def _level_spans(self, out, prefix, t_wall, t_mono, attrs):
        """Level walls from the times the build wrote each level's
        completion marker; busy time from the per-part manifests."""
        from tilers_tools_ray.state import lineage

        def mono(z):
            return t_mono + os.stat(lineage.level_complete_marker(out, z)).st_mtime - t_wall

        def busy(zs):
            return sum(m.get("wall_s", 0.0) for z in zs
                       for m in lineage.read_manifests(out, z).values())

        zb, over = self.z_base, range(self.z_min, self.z_base)
        base_end = mono(zb)
        self.tracer.add(f"{prefix}.base_level", t_mono, base_end, busy_s=busy([zb]))
        self.tracer.add(f"{prefix}.overview_levels", base_end,
                        max(mono(z) for z in over), busy_s=busy(over))
        levels = checks.read_levels(out)
        attrs["tiles"] = sum(t.num_rows for t in levels.values())
        attrs["parts"] = sum(len(lineage.done_parts(out, z)) for z in levels)
        attrs["tile_bytes"] = checks.tile_bytes(out)

    @contextmanager
    def _stage_spans(self, prefix):
        """Traced builds: spans around the stage functions write_pyramid
        calls (auto_zoom, census_parts, make_salt_plan), by wrapping them
        in the module namespace for the duration of the call."""
        if not self.traced:
            yield
            return
        from tilers_tools_ray.pipelines import pyramid

        names = ("auto_zoom", "census_parts", "make_salt_plan")
        orig = {n: getattr(pyramid, n) for n in names}

        def wrap(name):
            def call(*args, **kwargs):
                with self.tracer.span(f"{prefix}.{name}") as attrs:
                    out = orig[name](*args, **kwargs)
                if name == "make_salt_plan":
                    attrs["salted_parts"] = len(out)
                    self.salt_plan = out
                return out
            return call

        for n in names:
            setattr(pyramid, n, wrap(n))
        try:
            yield
        finally:
            for n in names:
                setattr(pyramid, n, orig[n])

    def crash_copy(self, out, dst, round_idx):
        """Copy ``out`` as a crash during the base level leaves it: a
        seeded quarter of the base parts and every level above gone."""
        from tilers_tools_ray.state import lineage

        shutil.copytree(out, dst)
        zb = self.z_base
        done = sorted(lineage.done_parts(dst, zb))
        rng = np.random.default_rng([self.seed, 4242, round_idx])
        lost = rng.choice(done, size=max(1, len(done) // 4), replace=False)
        for p in lost:
            os.remove(lineage.part_parquet_path(dst, zb, int(p)))
            os.remove(lineage.manifest_path(dst, zb, int(p)))
        os.remove(lineage.level_complete_marker(dst, zb))
        for z in range(self.z_min, zb):
            shutil.rmtree(lineage.level_dir(dst, z))
            shutil.rmtree(lineage.lineage_dir(dst, z))
        return len(lost)

    def round(self, round_idx):
        """One fresh build + one resume. Returns the timed seconds."""
        out = os.path.join(self.run.dir, f"pyr{round_idx}")
        res = out + "-resumed"
        t_fresh = self._build(out, "pyramid.build")
        if self.traced:
            self._trace_emit()
        lost = self.crash_copy(out, res, round_idx)
        if self.traced:
            self._count_resume_fragments(res)
        t_resume = self._build(res, "resume.build", lost_parts=lost)
        self.rounds.append((out, res))
        self.walls.append((t_fresh, t_resume))
        return t_fresh + t_resume

    # -- traced stage calls -----------------------------------------------
    def _fragments(self, **kwargs):
        """``fragments_dataset`` with the settings ``write_pyramid`` uses,
        its own ``batch_size`` default included, and the traced build's
        salt plan."""
        from tilers_tools_ray.pipelines import pyramid

        zb = self.z_base
        batch = inspect.signature(pyramid.write_pyramid).parameters["batch_size"].default
        return pyramid.fragments_dataset(
            self.paths["images"], zb, pyramid.default_z_part(zb),
            resampling="nearest", salt_plan=self.salt_plan,
            n_zorder=self.table.num_rows, batch_size=batch, **kwargs,
        )

    def _trace_emit(self):
        """The emission stage on its own (decode, warp, cutline mask,
        pack), with the salt plan the traced build used."""
        with self.tracer.span("pyramid.emit") as a, self.run.op(90):
            frags = self._fragments().materialize()
        a["fragments"] = frags.count()
        a["fragment_bytes"] = frags.size_bytes()

    def _count_resume_fragments(self, res):
        from tilers_tools_ray.state import lineage

        with self.tracer.span("resume.emit") as a, self.run.op(90):
            a["fragments"] = self._fragments(
                done_parts=lineage.done_parts(res, self.z_base)).count()

    # -- checks (outside the timed calls) --------------------------------
    def check(self):
        from tilers_tools_ray import golden

        if self.golden is None:
            self.golden = golden.tile_pyramid(
                self.table, z_base=self.z_base, z_min=self.z_min, resampling="nearest"
            )
        errs = []
        for i, (out, res) in enumerate(self.rounds):
            fresh = checks.read_levels(out)
            tiles = sum(t.num_rows for t in fresh.values())
            t_fresh, t_resume = self.walls[i]
            print(f"[perfbench] round {i}: fresh build {t_fresh:.2f} s, "
                  f"{tiles} tiles, {tiles / t_fresh:.2f} tiles/s; "
                  f"resume {t_resume:.2f} s", file=sys.stderr, flush=True)
            resumed = checks.read_levels(res)
            rng = np.random.default_rng([self.seed, 77, i])
            parents = checks.sample_parents(fresh, self.z_base, self.z_min, rng, BOX_SAMPLE)
            errs += checks.check_golden(fresh, self.golden)
            errs += checks.check_checksums(fresh)
            errs += checks.check_parents(fresh, self.z_base, self.z_min)
            errs += checks.check_box(fresh, parents)
            errs += checks.check_same_rollup(fresh, resumed)
        return errs
