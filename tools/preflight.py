#!/usr/bin/env python3
"""All-registry preflight: run EVERY ``queries()`` entry and compare
the SQL-expressible ones against DuckDB, writing a JSON artifact.

The external round driver snapshots only the first 50 registry keys
into ``CORRECTNESS_r{N}.json`` (observed r3: 50/55, r4: 50/88), so a
regression in the back half of the registry would be invisible to it.
This tool is the repo-side closure of that gap (r4 VERDICT "Next
round" #6): it applies the driver's own compare procedure — row
count, column-name schema, order-insensitive value hash after
sorting columns by name — to ALL entries.

Usage::

    python tools/preflight.py [--sf /root/testdata/sf0.01] \
        [--out /tmp/preflight.json] [--only name1,name2]

Exit status is non-zero if any entry errors or any oracled entry
mismatches.  This script owns its Ray session (the library never
calls ray.init).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from tilers_tools_ray.scan import Scan

    if isinstance(res, (rd.Dataset, Scan)):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return pd.DataFrame(res)


def _normalize(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _value_hash(df):
    return hashlib.sha256(
        df.to_csv(index=False, float_format="%.6f").encode()
    ).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--out", default="/tmp/preflight.json")
    ap.add_argument("--only", default="", help="comma-separated names")
    args = ap.parse_args()

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            ignore_reinit_error=True,
        )

    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    only = {n for n in args.only.split(",") if n}
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{args.sf}/{t}.parquet')"
        )

    report, n_fail = {}, 0
    for i, (name, fn) in enumerate(qs.items()):
        if only and name not in only:
            continue
        row = {"pos": i, "oracled": name in oracles}
        t0 = time.monotonic()
        try:
            got = _to_pandas(fn(args.sf))
            row["rows"] = int(len(got))
            row["sec"] = round(time.monotonic() - t0, 3)
            if name in oracles:
                exp = con.execute(oracles[name]).df()
                g, x = _normalize(got), _normalize(exp)
                row["oracle_rows"] = int(len(exp))
                row["rows_match"] = len(g) == len(x)
                row["schema_match"] = list(g.columns) == list(x.columns)
                row["hash_match"] = (
                    row["rows_match"]
                    and row["schema_match"]
                    and _value_hash(g) == _value_hash(x)
                )
                row["ok"] = bool(row["hash_match"])
            else:
                row["ok"] = row["rows"] >= 0
        except Exception as ex:  # noqa: BLE001 - report-everything tool
            row["ok"] = False
            row["err"] = f"{type(ex).__name__}: {ex}"
            traceback.print_exc()
        n_fail += 0 if row["ok"] else 1
        status = "ok" if row["ok"] else "FAIL"
        print(f"[{i + 1:3d}/{len(qs)}] {name:36s} {status}", flush=True)
        report[name] = row

    summary = {
        "sf": args.sf,
        "total": len(report),
        "oracled": sum(1 for r in report.values() if r["oracled"]),
        "failures": n_fail,
    }
    with open(args.out, "w") as f:
        json.dump({"summary": summary, "entries": report}, f, indent=1)
    print(json.dumps(summary))
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
