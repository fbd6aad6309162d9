"""In-memory span recorder for traced runs.

A span is (name, start, end, parent, attrs): ``start``/``end`` are
``time.monotonic()`` seconds, ``parent`` is the index of the enclosing
span (or None), and ``attrs`` holds counts measured inside the span
(fragments, bytes, parts). Spans are only kept in memory while the run
is timed; :meth:`Tracer.dump` writes them out once, at exit, so tracing
adds no file I/O to the timed calls.

Every per-layer metric of a traced run is derived from these spans by
:func:`per_layer_metrics` — nothing is timed outside a span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.monotonic(), "end": None,
               "parent": parent, "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def add(self, name, start, end, **attrs):
        """Record a span whose bounds were observed, not bracketed (e.g.
        a level's wall, read from the time its completion marker was
        written)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "attrs": dict(attrs)})

    def one(self, name):
        found = [s for s in self.spans if s["name"] == name]
        if len(found) != 1:
            raise KeyError(f"expected one span {name!r}, found {len(found)}")
        return found[0]

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f, indent=0)


class NullTracer(Tracer):
    """Untraced runs: spans cost one context-manager entry and nothing is
    kept."""

    @contextmanager
    def span(self, name, **attrs):
        yield {}


def duration(span):
    return span["end"] - span["start"]


def per_layer_metrics(tracer, query_names):
    """Every per-layer metric, derived from the recorded spans."""
    m = {}
    one = tracer.one

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    # --- pyramid stages (the fresh traced build, and emission on its own)
    put("pyramid.auto_zoom_s", duration(one("pyramid.auto_zoom")), "s")
    put("pyramid.census_s", duration(one("pyramid.census_parts")), "s")
    put("pyramid.salted_parts", one("pyramid.make_salt_plan")["attrs"]["salted_parts"], "count")
    emit = one("pyramid.emit")
    put("pyramid.emit_s", duration(emit), "s")
    put("pyramid.fragments", emit["attrs"]["fragments"], "count")
    put("pyramid.fragment_mb", emit["attrs"]["fragment_bytes"] / 1e6, "MB")
    build = one("pyramid.build")
    put("pyramid.tiles_per_s", build["attrs"]["tiles"] / duration(build), "tiles/s")
    put("pyramid.mb", build["attrs"]["tile_bytes"] / 1e6, "MB")
    base = one("pyramid.base_level")
    put("pyramid.base_wall_s", duration(base), "s")
    put("pyramid.base_busy_s", base["attrs"]["busy_s"], "s")
    ov = one("pyramid.overview_levels")
    put("pyramid.overview_wall_s", duration(ov), "s")
    put("pyramid.overview_busy_s", ov["attrs"]["busy_s"], "s")
    put("pyramid.parts_committed", build["attrs"]["parts"], "count")

    # --- resume after a crash during the base level ------------------
    resume = one("resume.build")
    put("resume.wall_s", duration(resume), "s")
    put("resume.lost_parts", resume["attrs"]["lost_parts"], "count")
    rf = one("resume.emit")
    put("resume.fragments", rf["attrs"]["fragments"], "count")
    put("resume.fragment_ratio",
        rf["attrs"]["fragments"] / emit["attrs"]["fragments"], "ratio")
    put("resume.base_wall_s", duration(one("resume.base_level")), "s")
    put("resume.overview_wall_s", duration(one("resume.overview_levels")), "s")

    # --- single-core kernels ------------------------------------------
    for s in tracer.spans:
        if s["name"].startswith("kernel."):
            a = s["attrs"]
            put(f"{s['name']}_{a['unit_name']}", a["amount"] / duration(s), a["unit"])

    # --- relational layer ----------------------------------------------
    for q in query_names:
        put(f"query.{q}_s", duration(one(f"query.{q}")), "s")
    return m
