"""query_sweep: a fixed list of registry queries, one pass per round,
each checked against DuckDB (oracled queries) or golden (the spatial
join), outside the timed calls.
"""

from __future__ import annotations

import os
import time

import duckdb
import pyarrow.parquet as pq

import checks
import inputs

#: one or more samples per query family; README.md says what was left
#: out and why
QUERIES = [
    # TPC-H joins and aggregates
    "q1_pricing_summary",
    "q5_nation_revenue",
    "q9_product_profit",
    "q18_large_orders",
    "q22_idle_rich_customers",
    # windows and events
    "events_sessionize",
    "customer_order_windows",
    # text and dedup
    "dedup_exact_docs",
    "doc_top_terms",
    "benchmark_contamination",
    "ngram_decontamination",
    # embeddings
    "ann_cosine_topk",
    # grouping sets
    "nation_segment_cube",
    # the spatial join
    "spatial_join_images",
]
QUERY_TIMEOUT_S = 60.0
#: the registry's spatial join reads queries._corpus_for(sf_dir)
_CORPUS_QUERIES = {"spatial_join_images"}


class QuerySweep:
    def __init__(self, run, tracer, seed):
        self.run = run
        self.tracer = tracer
        self.seed = seed
        self.results = []

    def setup(self, inputs_root):
        self.sf_dir = inputs.SF_DIR
        self.corpus = inputs.corpus_paths(inputs_root, self.seed)

    def round(self, round_idx):
        """One pass over the list. Returns the timed seconds."""
        import preflight
        from tilers_tools_ray.relational import queries

        # route the registry's spatial-join corpus to this run's seeded
        # corpus instead of a shared /tmp directory
        queries._corpus_for = lambda sf_dir, _p=self.corpus: _p
        got, total = {}, 0.0
        for name in QUERIES:
            t0 = time.monotonic()
            with self.tracer.span(f"query.{name}"), self.run.op(QUERY_TIMEOUT_S):
                got[name] = preflight._to_pandas(queries.QUERIES[name](self.sf_dir))
            total += time.monotonic() - t0
        self.results.append(got)
        return total

    def check(self):
        from tilers_tools_ray import golden
        from tilers_tools_ray.relational import queries

        con = duckdb.connect()
        for f in sorted(os.listdir(self.sf_dir)):
            con.execute(f"CREATE VIEW {f.removesuffix('.parquet')} AS SELECT * "
                        f"FROM read_parquet('{os.path.join(self.sf_dir, f)}')")
        want = {n: con.execute(queries.ORACLES[n]).df()
                for n in QUERIES if n in queries.ORACLES}
        join_rows = golden.spatial_join(
            pq.read_table(self.corpus["images"]),
            pq.read_table(self.corpus["coverage"]), knn_eps=5e4,
        )
        errs = []
        for got in self.results:
            for name, df in got.items():
                if name in want:
                    e = checks.check_frame(df, want[name])
                elif name in _CORPUS_QUERIES:
                    e = checks.check_region_counts(df, join_rows)
                else:
                    e = ["no independent check"]
                errs += [f"{name}: {x}" for x in e]
        return errs
