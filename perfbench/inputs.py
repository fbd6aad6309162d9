"""Benchmark inputs.

The image corpus is made from the run's seed into a directory of the
run's own (under ``perfbench/.runs/``, removed at exit), so every run
regenerates it with the code of the checkout and no run can read a
corpus that older code left behind.

The relational tables are the repository's bench fixture at scale
factor 0.1 (FIXTURES.md §B, seed 42), kept byte for byte under
``perfbench/data/sf0.1``.
"""

from __future__ import annotations

import os
import time

from harness import ROOT

#: images in the corpus (the pyramid's, and the query sweep's spatial join)
N_IMAGES = 96
#: TPC-H-shaped tables the query list reads
SF_DIR = os.path.join(ROOT, "perfbench", "data", "sf0.1")


def corpus_paths(root, seed, n=N_IMAGES):
    """Generate the seeded corpus under ``root``: images (32 parquet
    parts, made by Ray) + coverage.parquet."""
    from tilers_tools_ray import corpus

    return corpus.generate(os.path.join(root, "corpus"), n_rows=n, seed=seed,
                           use_ray=True)


def timed_setup(make, reps):
    """Run ``make(rep)`` ``reps`` times, each into a fresh root; return
    the seconds each took."""
    times = []
    for k in range(reps):
        t0 = time.monotonic()
        make(k)
        times.append(time.monotonic() - t0)
    return times
