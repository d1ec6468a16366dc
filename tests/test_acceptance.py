"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line once its criterion holds (visible with
``pytest -s`` or in captured output), so the suite doubles as a
checklist. Timings are asserted with wall-clock budgets.
"""

import json
import math
import os
import random
import time

import pytest

from helpers import (
    make_stop,
    matrix_from_points,
    min_bins_exhaustive,
    min_cost_by_enumeration,
    random_graph,
)
from vrp_oracle import brute_force_vrp
from mswplan.coverage import (
    CoverageConfig,
    aggregate_demand,
    place_stops,
    verify_coverage,
)
from mswplan.errors import InconsistentSummary
from mswplan.impact import (
    ScenarioSummary,
    calibrate_factors,
    compare_scenarios,
    daily_impacts,
)
from mswplan.network import (
    UNREACHABLE,
    RoadNetwork,
    cost_matrix,
    shortest_path,
    snap,
)
from mswplan.pipeline import load_scenario_config, run_pipeline
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city
from mswplan.vrp import FleetSpec, Trip, size_fleet, solve_vrp

DEMO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "demo"))

EXISTING = ScenarioSummary(
    name="dumpster-collection",
    n_trucks=16, truck_capacity_kg=18000, n_stops=381, avg_stop_time_s=900,
    avg_route_km=110, total_km=1756, avg_route_h=5.3, total_time_h=84.6,
    energy_mj_day=108907, co_g_day=142, co2_g_day=34197, nox_g_day=473,
)
PROPOSED = ScenarioSummary(
    name="door-to-door",
    n_trucks=50, truck_capacity_kg=4000, n_stops=500, avg_stop_time_s=1800,
    avg_route_km=67, total_km=3347, avg_route_h=1.2, total_time_h=62.2,
    energy_mj_day=336089, co_g_day=97, co2_g_day=19462, nox_g_day=210,
)


def report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_comparison_reproduces_published_percentages():
    t0 = time.perf_counter()
    rep = compare_scenarios(EXISTING, PROPOSED)
    printed = {
        "avg_route_distance_km": 39.0,
        "avg_route_time_h": 77.0,
        "total_time_h": 26.5,
        "co_g_day": 32.0,
        "co2_g_day": 43.0,
        "nox_g_day": 56.0,
        "total_distance_km": -90.0,  # a 90% distance increase
    }
    for key, value in printed.items():
        assert rep.improvements[key] == pytest.approx(value, abs=1.0), key
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"scenario comparison matches published percentages within "
           f"1 point ({elapsed:.3f}s)")


def test_criterion_2_summary_internal_consistency():
    # construction of both reference summaries passes the 5% gate
    for s in (EXISTING, PROPOSED):
        drift_km = abs(s.n_trucks * s.avg_route_km - s.total_km) / s.total_km
        drift_h = abs(s.n_trucks * s.avg_route_h - s.total_time_h) / s.total_time_h
        assert drift_km < 0.05
        assert drift_h < 0.05
    worst = abs(50 * 1.2 - 62.2) / 62.2
    assert worst < 0.05
    with pytest.raises(InconsistentSummary):
        ScenarioSummary("broken", 10, 1000, 10, 600,
                        avg_route_km=50, total_km=900,
                        avg_route_h=1, total_time_h=10)
    report(f"trucks x average recovers totals within 5% "
           f"(worst case {worst:.1%}); violations are rejected")


def test_criterion_3_calibration_round_trip():
    worst = 0.0
    for summary in (EXISTING, PROPOSED):
        f = calibrate_factors(summary)
        got = daily_impacts(summary.total_km, summary.n_stops, f)
        assert list(got) == ["energy_mj_day", "co_g_day", "co2_g_day", "nox_g_day"]
        for key, g in got.items():
            w = getattr(summary, key)
            rel = abs(g - w) / w
            worst = max(worst, rel)
            assert rel < 0.005
    report(f"calibrated factors reproduce all energy/emission totals "
           f"(worst relative error {worst:.2e} < 0.5%)")


def test_criterion_4_shortest_path_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260401)
    graphs = 0
    while graphs < 200:
        net = random_graph(rng, max_nodes=10, max_edges=25)
        graphs += 1
        ids = net.node_ids
        source = ids[graphs % len(ids)]
        for metric in ("time", "distance"):
            m1 = cost_matrix(net, [source], ids, metric)
            m2 = cost_matrix(net, [source], ids, metric)
            assert m1 == m2  # determinism across runs
            for j, target in enumerate(ids):
                oracle = min_cost_by_enumeration(net, source, target, metric)
                if oracle is None:
                    assert m1.cost[0][j] == UNREACHABLE
                else:
                    assert m1.cost[0][j] == oracle  # exact, not approximate
                    p1, c1 = shortest_path(net, source, target, metric)
                    p2, c2 = shortest_path(net, source, target, metric)
                    assert (p1, c1) == (p2, c2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"200 random graphs: search equals exhaustive enumeration "
           f"exactly and deterministically ({elapsed:.1f}s < 10s)")


def test_criterion_5_vrp_oracle_quality():
    t0 = time.perf_counter()
    rng = random.Random(20260402)
    total, exact = 100, 0
    fleet = FleetSpec(capacity_kg=4000)
    for k in range(total):
        n = rng.randint(4, 7)
        pts = {0: (rng.uniform(0, 4000), rng.uniform(0, 4000))}
        for i in range(1, n + 1):
            pts[i] = (rng.uniform(0, 4000), rng.uniform(0, 4000))
        matrix = matrix_from_points(pts)
        stops = [make_stop(i, i, rng.uniform(300, 600)) for i in range(1, n + 1)]
        plan = solve_vrp(matrix, stops, 0, fleet, seed=k)
        # feasibility: exact cover, capacity, shift
        covered = sorted(s for t in plan.all_trips() for s in t.stop_ids)
        assert covered == sorted(s.id for s in stops)
        for t in plan.all_trips():
            assert t.load_kg <= fleet.capacity_kg + 1e-9
        for _, trips in plan.trucks:
            assert sum(t.total_time_s for t in trips) <= fleet.shift_s + 1e-6
        optimum = brute_force_vrp(matrix, stops, 0, fleet)
        assert plan.cost >= optimum.cost - 1e-6
        assert plan.cost <= 1.15 * optimum.cost
        if math.isclose(plan.cost, optimum.cost, rel_tol=1e-9):
            exact += 1
    elapsed = time.perf_counter() - t0
    assert exact >= 0.8 * total
    assert elapsed < 60.0
    report(f"100 random instances: heuristic within 1.15x of enumeration, "
           f"{exact}% exact optima ({elapsed:.1f}s < 60s)")


def test_criterion_6_coverage_properties():
    rng = random.Random(20260403)
    cfg = CoverageConfig()  # 300 m radius, network distances
    for case in range(100):
        spec = SyntheticCitySpec(
            seed=case,
            grid_x=rng.randint(2, 4),
            grid_y=rng.randint(2, 4),
            buildings_per_block=rng.randint(1, 6),
            units_per_building=rng.randint(2, 10),
        )
        nodes, edges, buildings = gen_synthetic_city(spec)
        net = RoadNetwork(nodes, edges)
        demands = aggregate_demand(buildings, 2.49)
        stops = place_stops(net, demands, cfg)
        assert verify_coverage(stops, demands, net, cfg).ok
        # radius respected, by independent recomputation per assignment
        by_id = {d.id: d for d in demands}
        for s in stops:
            for i in s.covered_demand_ids:
                d = by_id[i]
                target = snap(net, (d.x_m, d.y_m), cfg.radius_m)
                if s.node == target:
                    continue
                _, meters = shortest_path(net, s.node, target, "distance")
                assert meters <= cfg.radius_m + 1e-9
        # exact conservation: identical float multisets
        assigned = sorted(i for s in stops for i in s.covered_demand_ids)
        assert assigned == sorted(d.id for d in demands)
        assert math.fsum(s.assigned_demand_kg for s in stops) == pytest.approx(
            math.fsum(d.waste_kg_day for d in demands), rel=1e-12
        )
    # canonical block: 26 buildings x 4 floors x 2 units at one corner
    nodes, edges, _ = gen_synthetic_city(SyntheticCitySpec(buildings_per_block=0))
    net = RoadNetwork(nodes, edges)
    cluster = aggregate_demand([(i, 0.0, 0.0, 8) for i in range(26)], 2.49)
    stops = place_stops(net, cluster, cfg)
    assert len(stops) == 1
    assert stops[0].assigned_demand_kg == pytest.approx(517.92, rel=1e-12)
    report("100 synthetic cities fully covered within 300 m, mass conserved; "
           "canonical 208-unit cluster yields one 517.92 kg stop")


def test_criterion_7_end_to_end_demo(tmp_path):
    cfg_path = os.path.join(DEMO, "city3x3", "scenario.cfg")
    t0 = time.perf_counter()
    first = run_pipeline(load_scenario_config(cfg_path), str(tmp_path / "a"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert 55 <= len(first.demands) <= 70  # ~60 demand points
    second = run_pipeline(load_scenario_config(cfg_path), str(tmp_path / "b"))
    for key in first.files:
        with open(first.files[key], "rb") as fa, open(second.files[key], "rb") as fb:
            assert fa.read() == fb.read()
    with open(first.files["routes"]) as fh:
        collection = json.load(fh)
    for feature in collection["features"]:
        coords = feature["geometry"]["coordinates"]
        poly = math.fsum(
            math.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(coords[:-1], coords[1:])
        )
        stated = feature["properties"]["distance_m"]
        if stated:
            assert abs(poly - stated) / stated < 1e-6
        else:
            assert poly == 0.0
    report(f"bundled demo plans {len(first.demands)} demand points "
           f"deterministically in {elapsed:.2f}s; polylines match plan "
           f"distances to 1e-6")


def test_criterion_8_fleet_sizing_matches_exhaustive_packing():
    rng = random.Random(20260404)
    shift = 8 * 3600.0
    for _ in range(50):
        n = rng.randint(1, 6)
        durations = [rng.uniform(0.4, 7.9) * 3600.0 for _ in range(n)]
        trips = [Trip([i], 0.0, d, 0.0, 0.0, 0.0) for i, d in enumerate(durations)]
        ffd = len(size_fleet(trips, shift))
        assert ffd == min_bins_exhaustive(durations, shift)
    report("first-fit-decreasing equals exhaustive bin packing on all "
           "50 small instances")
