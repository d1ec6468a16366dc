"""Plan seeded synthetic cities repeatedly and report the planner's metrics.

    python3 perfbench/run.py --workload dense_city --seed 1 --seconds 25 --trace 0

Run from anywhere; the planner is imported from ``src/`` next to this
directory. Each invocation is one single-threaded process for one
workload. The seed picks the run's ``CITIES`` cities; the planner sees
only the files written for them. With ``--trace 0`` the run times whole
plans (config load plus ``run_pipeline``, the work ``mswplan plan``
does) round-robin over the cities and prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced plans and prints
the per-layer metrics. Each plan and each set-up is timed right after
the calibration kernel of ``calib.py`` and its time is scaled by the
kernel's, so the times read as seconds on the reference machine. Every
plan is checked, and the last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

README.md next to this file lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import calib
from spans import Tracer
from workloads import WORKLOADS, write_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench-runs")
#: Cities per run. Plan work differs by ~14% (dense_city) from one city
#: to the next, and a sparse_sprawl city needs one truck or two, so a run
#: sums or averages over many to keep seeds comparable.
CITIES = 16
SETUP_REPEATS = 15
GOLDEN_FILES = ("stops.csv", "plan.csv", "routes.geojson", "summary.cfg")

#: per-layer time metric -> span names whose self times it sums
SPAN_METRICS = {
    "network.load_s": ("network.load",),
    "network.snap_s": ("network.snap",),
    "network.matrix_s": ("network.matrix",),
    "coverage.load_s": ("coverage.load",),
    "coverage.place_stops_s": ("coverage.place_stops",),
    "coverage.audit_s": ("coverage.audit",),
    "vrp.solve_s": ("vrp.solve",),
    "vrp.metrics_s": ("vrp.metrics",),
    "geometry.route_s": ("geometry.route",),
    "impact.s": ("impact.summary", "impact.compare"),
    "emit.s": ("emit.stops", "emit.plan", "emit.routes", "emit.summary",
               "emit.comparison"),
    "pipeline.config_s": ("pipeline.config",),
    "pipeline.self_s": ("pipeline.plan",),
}
COUNT_METRICS = (
    "network.nodes", "network.edges", "network.turns", "network.matrix_cells",
    "coverage.candidates", "coverage.demands", "coverage.pairs",
    "vrp.stops", "vrp.trips", "geometry.legs", "geometry.vertices",
    "emit.bytes",
)


def fresh_import():
    """Import mswplan from scratch, as a new ``mswplan`` process would."""
    for name in [m for m in sys.modules if m == "mswplan" or m.startswith("mswplan.")]:
        del sys.modules[name]
    return importlib.import_module("mswplan")


def read_outputs(files: dict[str, str]) -> dict[str, bytes]:
    out = {}
    for path in files.values():
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def mean_of_medians(samples: list[list[float]]) -> float:
    """Per-city median, averaged over the cities."""
    return statistics.fmean(statistics.median(s) for s in samples)


def normalised(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` in seconds of the reference machine of ``calib``."""
    return wall_s * calib.REF_S / kernel_s


@dataclass
class City:
    seed: int
    cfg_path: str
    n_turns: int
    out_dir: str
    #: (plan cost, fleet size, stop count) and output bytes of its first plan
    quality: tuple[float, int, int] | None = None
    outputs: dict[str, bytes] | None = None
    #: counts of its first traced plan
    counts: dict[str, int] | None = None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.wl.name} seed={self.seed}: {why}", file=sys.stderr)

    def setup(self) -> float:
        """Import the planner and write every city's files; the median of
        the normalised seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            kernel_s = calib.seconds()
            t0 = time.perf_counter()
            mswplan = fresh_import()
            written = []
            for k in range(CITIES):
                city_seed = self.seed * CITIES + k
                city_dir = os.path.join(self.work, f"city{city_seed}")
                written.append((city_seed, city_dir,
                                *write_workload(mswplan, self.wl, city_seed, city_dir)))
            times.append(normalised(time.perf_counter() - t0, kernel_s))
        if not os.path.abspath(mswplan.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported {mswplan.__file__}, not the one in {SRC}")
        self.mswplan = mswplan
        self.cities = [City(s, cfg, n_turns, os.path.join(d, "out"))
                       for s, d, cfg, n_turns in written]
        return statistics.median(times)

    def plan(self, cfg_path: str, out_dir: str, tracer: Tracer | None = None):
        pipeline = self.mswplan.pipeline
        if tracer is None:
            return pipeline.run_pipeline(pipeline.load_scenario_config(cfg_path), out_dir)
        with tracer.span("pipeline.config"):
            cfg = pipeline.load_scenario_config(cfg_path)
        return pipeline.run_pipeline(cfg, out_dir)

    def check_golden(self) -> None:
        """The bundled four_stops demo must reproduce its golden files."""
        self.attempted += 1
        out = os.path.join(self.work, "four_stops")
        try:
            got = read_outputs(self.plan(
                os.path.join(ROOT, "demo", "four_stops", "scenario.cfg"), out).files)
            golden = os.path.join(ROOT, "tests", "golden", "four_stops")
            for name in GOLDEN_FILES:
                with open(os.path.join(golden, name), "rb") as fh:
                    if got.get(name) != fh.read():
                        self.fail(f"four_stops {name} differs from its golden copy")
                        return
        except Exception:
            self.fail("four_stops demo raised\n" + traceback.format_exc())

    def audit(self, city: City, files: dict[str, str]) -> None:
        """Independent checks of a city's first plan, from its written files."""
        m = self.mswplan
        cfg = m.pipeline.load_scenario_config(city.cfg_path)
        stops = m.coverage.load_stops(files["stops"])
        net = m.network.load_network(cfg.nodes_path, cfg.edges_path, cfg.turns_path)
        demands = m.coverage.aggregate_demand(
            m.coverage.load_buildings(cfg.buildings_path),
            cfg.generation_rate_kg_unit_day)
        report = m.coverage.verify_coverage(stops, demands, net, cfg.coverage)
        covered = sorted(i for s in stops for i in s.covered_demand_ids)
        assigned = math.fsum(s.assigned_demand_kg for s in stops)
        with open(files["plan"]) as fh:
            rows = fh.read().splitlines()[1:]
        visited = sorted(int(s) for row in rows for s in row.split(",")[2].split(";"))
        where = f"city {city.seed}: "
        if not report.ok:
            self.fail(where + f"stops.csv leaves demands uncovered: {report.uncovered_ids}")
        elif covered != sorted(d.id for d in demands):
            self.fail(where + "stops.csv does not cover each demand exactly once")
        elif not math.isclose(assigned, math.fsum(d.waste_kg_day for d in demands),
                              rel_tol=1e-9):
            self.fail(where + "stops.csv does not conserve demand mass")
        elif any(s.assigned_demand_kg > cfg.coverage.max_stop_load_kg + 1e-9
                 and len(s.covered_demand_ids) > 1 for s in stops):
            self.fail(where + "a shared stop exceeds the stop load cap")
        elif visited != sorted(s.id for s in stops):
            self.fail(where + "plan.csv does not visit each stop exactly once")

    def timed_plan(self, city: City, tracer: Tracer | None = None, plan_id: int = 0):
        """One checked plan; returns its wall seconds and those of the
        calibration kernel run just before it, or None if it failed."""
        self.attempted += 1
        kernel_s = calib.seconds()
        gc.collect()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = self.plan(city.cfg_path, city.out_dir)
            else:
                tracer.install(self.mswplan)
                try:
                    with tracer.plan(plan_id):
                        result = self.plan(city.cfg_path, city.out_dir, tracer)
                finally:
                    tracer.uninstall()
            dt = time.perf_counter() - t0
        except Exception:
            self.fail(f"city {city.seed}: plan raised\n" + traceback.format_exc())
            return None
        quality = (result.plan.cost, result.plan.fleet_size, len(result.stops))
        outputs = read_outputs(result.files)
        if city.outputs is None:
            city.quality, city.outputs = quality, outputs
            try:
                self.audit(city, result.files)
            except Exception:
                self.fail(f"city {city.seed}: audit raised\n" + traceback.format_exc())
        elif outputs != city.outputs:
            self.fail(f"city {city.seed}: plan outputs differ from its first plan's")
            return None
        elif quality != city.quality:
            self.fail(f"city {city.seed}: cost, fleet or stops differ from its first plan's")
            return None
        if tracer is not None:
            counts = tracer.counts[plan_id]
            counts.update({"network.turns": city.n_turns,
                           "emit.bytes": sum(len(b) for b in outputs.values())})
            if city.counts is None:
                city.counts = counts
            elif counts != city.counts:
                self.fail(f"city {city.seed}: traced counts {counts} differ from "
                          f"its first traced plan's {city.counts}")
                return None
        return dt, kernel_s

    def rounds(self, body) -> None:
        """Call ``body(k, city)`` round-robin over the cities until the
        run's seconds are up; the first round always completes."""
        deadline = time.perf_counter() + self.seconds
        for n in itertools.count():
            for k, city in enumerate(self.cities):
                if n and time.perf_counter() >= deadline:
                    return
                body(k, city)

    def end_to_end(self, setup_s: float) -> dict:
        times: list[list[float]] = [[] for _ in self.cities]
        walls: list[float] = []

        def body(k, city):
            timed = self.timed_plan(city)
            if timed is not None:
                times[k].append(normalised(*timed))
                walls.append(timed[0])

        self.rounds(body)
        if not all(times):
            return {}
        print(f"{self.wl.name} seed={self.seed}: {len(walls)} timed plans over "
              f"{len(self.cities)} cities, median wall {statistics.median(walls):.3f} s; "
              "normalised s per city: "
              + "; ".join(" ".join(f"{t:.3f}" for t in ts) for ts in times))
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (setup_s, "s"),
            "plan_s": (mean_of_medians(times), "s"),
            "plan_cost": (sum(c.quality[0] for c in self.cities), "s"),
            "fleet_size": (sum(c.quality[1] for c in self.cities), "count"),
            "n_stops": (sum(c.quality[2] for c in self.cities), "count"),
            "peak_rss_mb": (rss_mib, "MiB"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "frac"),
        }

    def per_layer(self, tracer: Tracer) -> dict:
        plain: list[list[float]] = [[] for _ in self.cities]
        traced: list[list[float]] = [[] for _ in self.cities]
        selfs: list[list[dict[str, float]]] = [[] for _ in self.cities]
        walls: list[float] = []
        kernels: list[float] = []
        plan_ids = itertools.count(1)

        def body(k, city):
            timed = self.timed_plan(city)
            if timed is not None:
                plain[k].append(normalised(*timed))
                walls.append(timed[0])
                kernels.append(timed[1])
            plan_id = next(plan_ids)
            timed = self.timed_plan(city, tracer, plan_id)
            if timed is not None:
                traced[k].append(normalised(*timed))
                selfs[k].append({n: normalised(t, timed[1])
                                 for n, t in tracer.self_times(plan_id).items()})

        self.rounds(body)
        if not (all(plain) and all(traced)):
            return {}

        def span_s(names):
            return mean_of_medians([[sum(s.get(n, 0.0) for n in names) for s in city]
                                    for city in selfs])

        metrics = {name: (span_s(spans), "s") for name, spans in SPAN_METRICS.items()}
        metrics.update({name: (sum(c.counts.get(name, 0) for c in self.cities), "count")
                        for name in COUNT_METRICS})
        metrics["vrp.stops_per_trip"] = (
            metrics["vrp.stops"][0] / metrics["vrp.trips"][0], "stops/trip")
        names = {n for city in selfs for s in city for n in s}
        layer_s = {layer: span_s([n for n in names if n.split(".")[0] == layer])
                   for layer in sorted({n.split(".")[0] for n in names})}
        traced_s, plain_s = mean_of_medians(traced), mean_of_medians(plain)
        intended = sum(layer_s.get(k, 0.0) for k in self.wl.intended)
        leads = all(intended > t for k, t in layer_s.items() if k not in self.wl.intended)
        print(f"{self.wl.name} seed={self.seed}: {sum(map(len, plain))} untraced and "
              f"{sum(map(len, traced))} traced plans over {len(self.cities)} cities; "
              "layer self s: " + ", ".join(f"{k}={v:.4f}" for k, v in layer_s.items())
              + f"; intended {'+'.join(self.wl.intended)} "
              + ("leads" if leads else "DOES NOT lead"))
        metrics.update({
            "bench.traced_plan_s": (traced_s, "s"),
            "bench.untraced_plan_s": (plain_s, "s"),
            "bench.trace_overhead_frac": (traced_s / plain_s - 1.0, "frac"),
            "bench.traced_plans": (sum(map(len, traced)), "count"),
            "bench.untraced_plans": (sum(map(len, plain)), "count"),
            "bench.intended_share": (intended / traced_s, "frac"),
            "bench.wall_plan_s": (statistics.median(walls), "s"),
            "bench.kernel_s": (statistics.median(kernels), "s"),
        })
        return metrics

    def run(self, trace: bool) -> dict:
        setup_s = self.setup()
        self.check_golden()
        if not trace:
            return self.end_to_end(setup_s)
        tracer = Tracer()
        try:
            return self.per_layer(tracer)
        finally:
            tracer.write(os.path.join(
                RUNS, f"spans-{self.wl.name}-seed{self.seed}.jsonl"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mswplan", "__init__.py")):
        print(f"perfbench: no mswplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        metrics = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = bench.failed == 0 and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
