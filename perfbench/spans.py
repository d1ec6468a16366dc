"""In-memory spans around the calls ``mswplan.pipeline`` makes into each module.

The tracer patches the module attributes the pipeline looks up at call
time, so the program itself is unchanged; ``uninstall`` puts the
originals back. A span is (name, start, end, parent, plan id); a span's
self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _matrix_cells(args, kwargs, m):
    return {"network.matrix_cells": len(m.origins) * len(m.destinations)}


def _net_size(args, kwargs, net):
    return {"network.nodes": net.n_nodes, "network.edges": len(net.edges)}


def _demands(args, kwargs, demands):
    return {"coverage.demands": len(demands)}


def _candidates(args, kwargs, stops):
    net, demands, cfg = args
    n = len(cfg.candidate_nodes) if cfg.candidate_nodes else net.n_nodes
    return {"coverage.candidates": n, "coverage.pairs": n * len(demands)}


def _vrp(args, kwargs, plan):
    return {"vrp.stops": len(args[1]), "vrp.trips": plan.n_trips}


def _geometry(args, kwargs, collection):
    plan = args[0]
    return {
        "geometry.legs": sum(len(t.stop_ids) + 1 for t in plan.all_trips()),
        "geometry.vertices": sum(len(f["geometry"]["coordinates"])
                                 for f in collection["features"]),
    }


def hooks(mswplan):
    """(module, attribute, span name, counter) for every traced call.

    The pipeline calls the network, coverage, vrp and impact functions
    through their modules, but the geometry writers and its own summary
    helpers through names bound in ``mswplan.pipeline``.
    """
    net, cov, vrp, imp, pipe = (mswplan.network, mswplan.coverage, mswplan.vrp,
                                mswplan.impact, mswplan.pipeline)
    return [
        (net, "load_network", "network.load", _net_size),
        (net, "snap", "network.snap", None),
        (net, "cost_matrix", "network.matrix", _matrix_cells),
        (cov, "load_buildings", "coverage.load", None),
        (cov, "aggregate_demand", "coverage.load", _demands),
        (cov, "place_stops", "coverage.place_stops", _candidates),
        (cov, "verify_coverage", "coverage.audit", None),
        (vrp, "solve_vrp", "vrp.solve", _vrp),
        (vrp, "route_metrics", "vrp.metrics", None),
        (pipe, "route_geometry", "geometry.route", _geometry),
        (pipe, "summary_from_plan", "impact.summary", None),
        (imp, "compare_scenarios", "impact.compare", None),
        (cov, "write_stops", "emit.stops", None),
        (vrp, "write_plan", "emit.plan", None),
        (pipe, "write_geojson", "emit.routes", None),
        (pipe, "write_summary", "emit.summary", None),
        (imp, "format_comparison_table", "emit.comparison", None),
        (imp, "format_comparison_text", "emit.comparison", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(dict)
        self._stack: list[int] = []
        self._plan: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "plan": self._plan}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def plan(self, plan_id: int):
        """Root span of one plan; every span inside it carries ``plan_id``."""
        self._plan = plan_id
        try:
            with self.span("pipeline.plan"):
                yield
        finally:
            self._plan = None

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[self._plan].update(counter(args, kwargs, result))
            return result
        return traced

    def install(self, mswplan) -> None:
        for module, attr, name, counter in hooks(mswplan):
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self, plan_id: int) -> dict[str, float]:
        """Span name -> summed self seconds within one plan."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["plan"] == plan_id and s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s["plan"] == plan_id:
                out[s["name"]] += s["end"] - s["start"] - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
