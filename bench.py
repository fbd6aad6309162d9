#!/usr/bin/env python
"""bench.py — headline throughput + query timings (BASELINE.md).

Headline: full checkpointed tile-pyramid build (base cut → part-grouped
composite shuffle → overview reduces → per-partition parquet commits)
over the deterministic bench corpus; metric = wall seconds (and
tiles/sec) — the task's "tiles/sec (base+overview pyramid build)"
(BASELINE.json:2).

Also times a representative slice of the relational/dedup/ANN layer
over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1).

Prints ONE JSON line. ``--scaling`` runs the same job in two fresh
processes (RAY_GRAFT_CPUS=8 then 32 — the sandbox substitute for the
N vs 4N-node criterion, SURVEY.md §4.4) and reports both throughputs
plus the scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

BENCH_QUERIES = [
    "q1_pricing_summary",
    "q3_top_revenue_orders",
    "q5_nation_revenue",
    "top_orders_by_price",
    "events_hourly",
    "events_sessionize",
    "events_sliding_window",
    "doc_token_stats",
    "doc_fingerprints",
    "dedup_exact_docs",
    "minhash_near_dups",
    "simhash_near_dups",
    "ngram_jaccard_pairs",
    "dedup_clean_corpus",
    "ann_cosine_topk",
    "embedding_dup_pairs",
    "spatial_join_images",
    "phash_dedup_images",
    "phash_near_dup_images",
    "top_orders_per_segment",
    "sample_documents_hash",
    "part_heavy_hitters",
    "q10_returned_items",
    "customer_order_windows",
    "embedding_lsh_dups",
    "q18_large_orders",
    "stratified_sample_orders",
    "distinct_parts_hll",
    "event_users_hll",
    "doc_top_terms",
    "order_price_quantile_sketch",
    "priority_quantiles_sketch",
    "customer_cumulative_spend",
    "customers_inactive_1995",
    "word_postings",
    "dedup_clean_images",
    "returnflag_price_stats",
    "segment_year_revenue_pivot",
    "q17_small_quantity_revenue",
    "nation_year_rollup",
    "doc_bigrams",
    "q13_order_distribution",
    "acctbal_quartiles",
    "orders_events_daily_outer",
    "doc_salient_terms",
    "balanced_docs_per_source",
    "q6_revenue_forecast",
    "q4_order_priority",
    "q12_priority_by_returnflag",
    "q14_promo_revenue",
    "q22_idle_rich_customers",
    "q7_nation_trade_volume",
    "q8_market_share",
    "q9_product_profit",
    "q11_important_parts",
    "q15_top_supplier",
    "q16_brand_size_suppliers",
    "q2_min_cost_supplier",
    "q19_discounted_revenue",
    "q20_big_blue_suppliers",
    "q21_waiting_suppliers",
    "doc_repetition",
    "benchmark_contamination",
    "pack_documents",
    "kmeans_embeddings",
    "zonal_image_stats",
    "image_quality_scores",
    "user_retention_cohorts",
    "event_funnel",
    "events_props_stats",
    "embedding_outliers",
    "source_normalization_stats",
    "pii_scrub_stats",
    "train_val_test_split",
    "ngram_decontamination",
    "nation_segment_cube",
]

CORPUS_ROWS = {"sf0.1": 25000, "sf0.01": 2000, "sf0.001": 400}


def run_bench(sf_dir, num_cpus):
    import ray

    # route the benign per-reduce "Failed to hash the schemas" warning
    # to the ray-data.log file instead of the console (set BEFORE
    # ray.init so workers inherit it)
    os.environ.setdefault(
        "RAY_DATA_LOGGING_CONFIG",
        os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "tilers_tools_ray",
            "data_logging.yaml",
        ),
    )
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from tilers_tools_ray import corpus
    from tilers_tools_ray.pipelines import pyramid
    from tilers_tools_ray.relational import queries as q

    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    n = int(os.environ.get("TTR_BENCH_ROWS", "0")) or CORPUS_ROWS.get(sf_tag, 2000)
    paths = corpus.generate(
        f"/tmp/ttr_bench_v4_{n}",  # v4: OZF4 uint32 tile count
        scale="bench",
        n_rows=n,
        seed=1234,
        use_ray=True,
    )
    # warm the page cache AND the Ray worker pool (worker spawn +
    # imports are cluster-startup cost, not pipeline throughput — the
    # scaling criterion compares steady-state throughput at two sizes)
    import pyarrow.parquet as pq

    pq.read_table(paths["images"])

    @ray.remote
    def _warm():
        import numpy  # noqa: F401
        import pandas  # noqa: F401
        import pyarrow  # noqa: F401

        return 1

    ray.get([_warm.remote() for _ in range(num_cpus * 2)])
    import ray.data as _rd

    _rd.range(num_cpus * 100, override_num_blocks=num_cpus).map_batches(
        lambda b: b
    ).count()

    out_dir = f"/tmp/ttr_bench_out_c{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    summary = pyramid.write_pyramid(
        paths["images"], out_dir, z_min=5, salt="auto"
    )
    t_pyr = time.monotonic() - t0
    n_tiles = sum(s["tiles"] for s in summary.values())

    import ray.data as rd

    from tilers_tools_ray.scan import Scan

    timings = {}
    skip_queries = os.environ.get("TTR_SKIP_QUERIES") == "1"
    if not skip_queries:
        # generate the query-corpus fixture OUTSIDE the timings (it is
        # test-data setup, not pipeline work; a cold /tmp would
        # otherwise bill ~10 s of serial corpus gen to the first
        # corpus-backed query)
        q._corpus_for(sf_dir)
    for name in [] if skip_queries else BENCH_QUERIES:
        t0 = time.monotonic()
        res = q.QUERIES[name](sf_dir)
        if isinstance(res, (rd.Dataset, Scan)):
            res.count()  # consume lazily-returned datasets and scans
        timings[name] = round(time.monotonic() - t0, 3)

    result = {
        "metric": "tile_pyramid_build_sec",
        "value": round(t_pyr, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf_tag,
        "num_cpus": num_cpus,
        "corpus_images": n,
        "tiles": int(n_tiles),
        "tiles_per_sec": round(n_tiles / t_pyr, 1),
    }
    ray.shutdown()
    return result


def run_subprocess(ncpu, rows=None):
    # scaling compares the HEADLINE pipeline only — skip the query sweep
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), TTR_SKIP_QUERIES="1")
    if rows:
        env["TTR_BENCH_ROWS"] = str(rows)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    if "--scaling" in sys.argv:
        # default pair 8→32; TTR_SCALE_PAIR="2,8" keeps BOTH levels in
        # the linear regime of the single socket's memory bus — the
        # more faithful proxy for N→4N nodes (see BASELINE.md)
        pair = os.environ.get("TTR_SCALE_PAIR", "8,32").split(",")
        lo_cpu, hi_cpu = int(pair[0]), int(pair[1])
        # single-run wall time at num_cpus=32 varies ±25% on this VM
        # (no steal; turbo/executor nondeterminism) — interleave
        # repeats and take medians (TTR_SCALE_REPEATS, default 3)
        repeats = int(os.environ.get("TTR_SCALE_REPEATS", "3"))
        los, his = [], []
        for _ in range(repeats):
            los.append(run_subprocess(lo_cpu))
            his.append(run_subprocess(hi_cpu))
        med = lambda rs: sorted(r["value"] for r in rs)[len(rs) // 2]
        lo_t, hi_t = med(los), med(his)
        eff = (lo_t / hi_t) / (hi_cpu / lo_cpu)
        tiles = los[0]["tiles"]
        print(
            json.dumps(
                {
                    "metric": "scaling_efficiency",
                    "value": round(eff, 3),
                    "unit": "ratio",
                    "sec_lo": lo_t,
                    "sec_hi": hi_t,
                    "sec_lo_all": [r["value"] for r in los],
                    "sec_hi_all": [r["value"] for r in his],
                    "tiles_per_sec_lo": round(tiles / lo_t, 1),
                    "tiles_per_sec_hi": round(tiles / hi_t, 1),
                    "cpus": [lo_cpu, hi_cpu],
                    "repeats": repeats,
                    "tiles": tiles,
                    "sf": los[0]["sf"],
                }
            )
        )
        return
    if "--sizes" in sys.argv:
        # headline at TWO corpus sizes (median-of-3 each) so single-run
        # outliers have printed context (BASELINE.md protocol); the
        # quoted headline number is always a median-of-3
        sizes = [
            int(s)
            for s in os.environ.get("TTR_BENCH_SIZES", "25000,100000").split(",")
        ]
        repeats = int(os.environ.get("TTR_SCALE_REPEATS", "3"))
        out = {}
        for rows in sizes:
            runs = [run_subprocess(NUM_CPUS, rows=rows) for _ in range(repeats)]
            vals = sorted(r["value"] for r in runs)
            med = vals[len(runs) // 2]
            out[str(rows)] = {
                "sec_median": med,
                "sec_all": [r["value"] for r in runs],
                "tiles": runs[0]["tiles"],
                "tiles_per_sec": round(runs[0]["tiles"] / med, 1),
            }
        print(
            json.dumps(
                {
                    "metric": "headline_two_sizes",
                    "unit": "sec",
                    "num_cpus": NUM_CPUS,
                    "repeats": repeats,
                    "sizes": out,
                }
            )
        )
        return
    print(json.dumps(run_bench(SF_DIR, NUM_CPUS)))


if __name__ == "__main__":
    main()
