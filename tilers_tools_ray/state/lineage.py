"""Per-partition lineage manifest (SURVEY.md §4.3, BASELINE.json:14).

Layout under the job output dir:
  out/tiles/z=<z>/part=<part_id>-<uuid-less name>.parquet  (atomic: tmp+rename)
  out/lineage/z<z>/part<part_id>.json                      (commit marker)
  out/lineage/<name>.json         job records (job, salt_plan, anchors,
                                  skipped_images)
  out/exchange/                   the base level's fragment files, wiped
                                  before emission, gone once it is done

A (level, part) is DONE iff its manifest JSON exists. Resume = read
the done set, broadcast it, prune at the fragment emitter / level
reader. Manifests carry tile_keys, input ids, checksum and row counts
so a verifier can audit exactly what each partition produced.

No shared mutable state: each reduce task commits its own partition;
re-running a committed partition is prevented by the done-set filter,
and a crashed run leaves only uncommitted tmp files that the next run
ignores (exactly the reference's ``--noclobber`` semantics lifted from
"file exists" to "manifest says done" — tiles_merge.py [C]).
"""

from __future__ import annotations

import json
import os


def level_dir(out_dir, z):
    return os.path.join(out_dir, "tiles", f"z={z}")


def lineage_dir(out_dir, z):
    return os.path.join(out_dir, "lineage", f"z{z}")


def part_parquet_path(out_dir, z, part):
    return os.path.join(level_dir(out_dir, z), f"part-{part}.parquet")


def manifest_path(out_dir, z, part):
    return os.path.join(lineage_dir(out_dir, z), f"part{part}.json")


def commit_part(out_dir, z, part, table, manifest):
    """Atomically write one partition's parquet + manifest JSON."""
    import pyarrow.parquet as pq

    os.makedirs(level_dir(out_dir, z), exist_ok=True)
    os.makedirs(lineage_dir(out_dir, z), exist_ok=True)
    final = part_parquet_path(out_dir, z, part)
    tmp = final + f".tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, final)
    mpath = manifest_path(out_dir, z, part)
    mtmp = mpath + f".tmp.{os.getpid()}"
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
    os.replace(mtmp, mpath)


def done_parts(out_dir, z):
    """Set of committed part ids for a level."""
    d = lineage_dir(out_dir, z)
    if not os.path.isdir(d):
        return frozenset()
    out = set()
    for name in os.listdir(d):
        if name.startswith("part") and name.endswith(".json"):
            out.add(int(name[4:-5]))
    return frozenset(out)


def read_manifests(out_dir, z):
    d = lineage_dir(out_dir, z)
    out = {}
    if not os.path.isdir(d):
        return out
    for name in sorted(os.listdir(d)):
        if name.startswith("part") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out[int(name[4:-5])] = json.load(f)
    return out


def level_complete_marker(out_dir, z):
    return os.path.join(lineage_dir(out_dir, z), "_LEVEL_DONE")


def mark_level_complete(out_dir, z, summary):
    os.makedirs(lineage_dir(out_dir, z), exist_ok=True)
    p = level_complete_marker(out_dir, z)
    with open(p + ".tmp", "w") as f:
        json.dump(summary, f)
    os.replace(p + ".tmp", p)


def level_is_complete(out_dir, z):
    return os.path.exists(level_complete_marker(out_dir, z))


def record_path(out_dir, name):
    return os.path.join(out_dir, "lineage", f"{name}.json")


def read_record(out_dir, name):
    """A job-level JSON record (job meta, salt plan, cascade anchors),
    or None."""
    p = record_path(out_dir, name)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def write_record(out_dir, name, obj):
    p = record_path(out_dir, name)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    with open(p + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(p + ".tmp", p)


def job_meta_path(out_dir):
    return record_path(out_dir, "job")


def check_job_meta(out_dir, meta):
    """Guard resume consistency: the first run records the job's grid
    parameters (profile, z_base, resampling); a resume with DIFFERENT
    parameters would silently mix tile grids, so it raises instead.
    Returns the stored meta."""
    stored = read_record(out_dir, "job")
    if stored is not None:
        diff = {
            k: (stored.get(k), v)
            for k, v in meta.items()
            if stored.get(k) != v
        }
        if diff:
            raise ValueError(
                f"resume parameter mismatch for {out_dir}: {diff} — this "
                "output dir was built with different grid parameters; use "
                "a fresh output dir (mixing profiles/zooms would corrupt "
                "the pyramid)"
            )
        return stored
    # no job.json, but committed work exists (pre-guard output dir or a
    # partially-deleted lineage tree): recording the CALLER's params as
    # ground truth would be exactly the silent grid-mixing this guard
    # prevents — refuse and make the user decide.
    lin = os.path.join(out_dir, "lineage")
    if os.path.isdir(lin) and any(
        name.startswith("z") and os.listdir(os.path.join(lin, name))
        for name in os.listdir(lin)
        if os.path.isdir(os.path.join(lin, name))
    ):
        raise ValueError(
            f"{out_dir} has committed lineage levels but no job.json — "
            "cannot verify this resume uses the same grid parameters as "
            "the original run. Use a fresh output dir, or restore/write "
            f"{job_meta_path(out_dir)} with the original parameters to resume."
        )
    write_record(out_dir, "job", meta)
    return meta


def job_summary(out_dir):
    """Tiny global rollup (A5): per-level tile counts + checksums."""
    root = os.path.join(out_dir, "lineage")
    summary = {}
    if not os.path.isdir(root):
        return summary
    for name in sorted(os.listdir(root)):
        if not name.startswith("z"):
            continue
        z = int(name[1:])
        manifests = read_manifests(out_dir, z)
        summary[z] = {
            "parts": len(manifests),
            "tiles": sum(m["n_tiles"] for m in manifests.values()),
            "checksum_xor": _xor_all(
                c for m in manifests.values() for c in [m["checksum_xor"]]
            ),
            "wall_s": round(sum(m.get("wall_s", 0.0) for m in manifests.values()), 3),
        }
    return summary


def _xor_all(vals):
    acc = 0
    for v in vals:
        acc ^= v
    return acc
