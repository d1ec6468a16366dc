import logging
import math
import random

import pytest

from helpers import min_cover_size_exhaustive
from mswplan.coverage import (
    CoverageConfig,
    DemandPoint,
    StopPoint,
    aggregate_demand,
    load_buildings,
    load_stops,
    place_stops,
    verify_coverage,
    write_buildings,
    write_stops,
)
from mswplan.errors import (DataError, NegativeUnits, PlannerError,
                            UncoverableDemand)
from mswplan.network import Edge, Node, RoadNetwork
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city


def line_network(spacing_m: float = 200.0, n: int = 8) -> RoadNetwork:
    nodes = [Node(i, i * spacing_m, 0.0) for i in range(n)]
    edges = []
    for i in range(n - 1):
        edges.append(Edge(i, i + 1, spacing_m, 40))
        edges.append(Edge(i + 1, i, spacing_m, 40))
    return RoadNetwork(nodes, edges)


def test_aggregate_single_building():
    pts = aggregate_demand([(1, 0.0, 0.0, 8)], 2.49)
    assert pts[0].waste_kg_day == pytest.approx(8 * 2.49)
    assert pts[0].waste_kg_day == pytest.approx(19.92)


def test_aggregate_standard_block_mass():
    # 26 buildings x 4 floors x 2 units each, all in one cluster
    units = 4 * 2
    rows = [(i, 10.0 * i, 0.0, units) for i in range(26)]
    pts = aggregate_demand(rows, 2.49)
    total = math.fsum(p.waste_kg_day for p in pts)
    assert total == pytest.approx(26 * 4 * 2 * 2.49)
    assert total == pytest.approx(517.92)


def test_aggregate_zero_units_and_order():
    pts = aggregate_demand([(5, 1.0, 2.0, 0), (2, 3.0, 4.0, 1)], 2.49)
    assert [p.id for p in pts] == [5, 2]
    assert pts[0].waste_kg_day == 0.0


def test_aggregate_negative_units_rejected():
    with pytest.raises(NegativeUnits):
        aggregate_demand([(1, 0.0, 0.0, -3)], 2.49)
    with pytest.raises(ValueError):
        aggregate_demand([(1, 0.0, 0.0, 3)], 0.0)


def test_singleton_demand_on_candidate_node():
    net = line_network()
    demands = aggregate_demand([(0, 400.0, 0.0, 8)], 2.49)
    cfg = CoverageConfig()
    stops = place_stops(net, demands, cfg)
    assert len(stops) == 1
    assert stops[0].covered_demand_ids == [0]
    assert stops[0].assigned_demand_kg == pytest.approx(8 * 2.49)
    assert verify_coverage(stops, demands, net, cfg).ok
    # equal-gain candidates tie-break to the smallest node id
    assert stops[0].node == 1


def test_two_distant_clusters_get_two_stops():
    net = line_network(spacing_m=200.0, n=8)  # nodes 0..7 at 0..1400 m
    rows = [(i, 0.0 + 20 * i, 0.0, 8) for i in range(3)]
    rows += [(10 + i, 1400.0 - 20 * i, 0.0, 8) for i in range(3)]
    demands = aggregate_demand(rows, 2.49)
    cfg = CoverageConfig(radius_m=300.0)
    # oracle: no single candidate node reaches both 0 m and 1400 m groups
    for nid in net.node_ids:
        x = net.node(nid).x_m
        assert not (abs(x - 0) <= 300 and abs(x - 1400) <= 300)
    stops = place_stops(net, demands, cfg)
    assert len(stops) == 2
    sides = {frozenset(s.covered_demand_ids) for s in stops}
    assert sides == {frozenset({0, 1, 2}), frozenset({10, 11, 12})}


def test_overweight_cluster_splits_within_cap():
    from mswplan.coverage import DemandPoint

    net = line_network()
    # 1040 kg in one spot: four demand points of 260 kg each
    demands = [DemandPoint(i, 400.0, 0.0, 0, 260.0) for i in range(4)]
    cfg = CoverageConfig(max_stop_load_kg=520.0)
    stops = place_stops(net, demands, cfg)
    assert len(stops) == 2
    assert all(s.assigned_demand_kg <= 520.0 + 1e-9 for s in stops)
    # brute force: a 2-way split respecting the cap exists (260*2 each side)
    assert sorted(len(s.covered_demand_ids) for s in stops) == [2, 2]


def test_single_demand_above_cap_gets_flagged_stop(caplog):
    from mswplan.coverage import DemandPoint

    net = line_network()
    demands = [DemandPoint(0, 400.0, 0.0, 0, 600.0)]
    cfg = CoverageConfig(max_stop_load_kg=520.0)
    with caplog.at_level(logging.WARNING):
        stops = place_stops(net, demands, cfg)
    assert len(stops) == 1
    assert verify_coverage(stops, demands, net, cfg).overflow_stop_ids == [0]
    assert stops[0].assigned_demand_kg == 600.0
    assert any("exceeds" in r.message for r in caplog.records)


def test_uncoverable_demand_raises():
    net = line_network(spacing_m=200.0, n=3)
    from mswplan.coverage import DemandPoint

    far = [DemandPoint(0, 5000.0, 0.0, 0, 10.0)]
    with pytest.raises(UncoverableDemand):
        place_stops(net, far, CoverageConfig(radius_m=300.0))


def test_network_without_nodes_leaves_every_demand_uncoverable():
    demand = [DemandPoint(0, 0.0, 0.0, 1, 10.0)]
    with pytest.raises(UncoverableDemand, match="^candidate node set is empty$"):
        place_stops(RoadNetwork([], []), demand, CoverageConfig())


@pytest.mark.parametrize("audit", [False, True])
def test_the_first_demand_that_fails_to_snap_raises(audit):
    net = line_network(spacing_m=200.0, n=3)  # nodes 0..2 at 0..400 m
    near = DemandPoint(3, 10.0, 0.0, 1, 2.0)
    far = DemandPoint(7, 5000.0, 0.0, 1, 2.0)
    farther = DemandPoint(9, 0.0, 9000.0, 1, 2.0)
    lost = DemandPoint(11, math.nan, 0.0, 1, 2.0)
    cfg = CoverageConfig(radius_m=300.0)

    def run(demands):
        if audit:  # a stop at node 0 that lists no demand
            stop = StopPoint(0, 0, 0.0, cfg.service_time_s, [])
            return verify_coverage([stop], demands, net, cfg)
        return place_stops(net, demands, cfg)

    with pytest.raises(UncoverableDemand, match="demand 7 does not snap"):
        run([near, far, lost, farther])
    with pytest.raises(UncoverableDemand, match="demand 9 does not snap"):
        run([farther, near, far])
    with pytest.raises(ValueError, match="non-finite"):
        run([near, lost, far])


def test_isolated_zero_mass_building_gets_a_stop():
    net = line_network(spacing_m=200.0, n=8)  # nodes 0..7 at 0..1400 m
    # building 1 has no dwelling units and sits 10 m past node 7, out of
    # reach of the stop that serves building 0
    demands = aggregate_demand([(0, 400.0, 0.0, 8), (1, 1410.0, 0.0, 0)], 2.49)
    cfg = CoverageConfig(radius_m=300.0)
    stops = place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in stops] == [(1, [0]), (6, [1])]
    assert stops[1].assigned_demand_kg == 0.0
    assert verify_coverage(stops, demands, net, cfg).ok


def test_euclidean_mode_covers_offroad_demand():
    net = line_network()
    from mswplan.coverage import DemandPoint

    demands = [DemandPoint(0, 400.0, 250.0, 0, 10.0)]
    cfg = CoverageConfig(distance_mode="euclidean")
    stops = place_stops(net, demands, cfg)
    assert stops[0].node == 2
    assert verify_coverage(stops, demands, net, cfg).ok


def test_verify_flags_emptied_and_moved_stops():
    net = line_network()
    demands = aggregate_demand([(i, 400.0 + i, 0.0, 8) for i in range(3)], 2.49)
    cfg = CoverageConfig()
    stops = place_stops(net, demands, cfg)
    assert verify_coverage(stops, demands, net, cfg).ok

    report = verify_coverage([], demands, net, cfg)
    assert report.uncovered_ids == [0, 1, 2]

    moved = [s for s in stops]
    moved[0].node = 7  # 1400 m: beyond the 300 m radius
    report = verify_coverage(moved, demands, net, cfg)
    assert report.uncovered_ids == [0, 1, 2]


@pytest.mark.parametrize("second_kg, over", [
    (260.0, False), (260.0 + 1e-7, False), (260.0 + 1e-5, True), (300.0, True),
], ids=["at_cap", "within_tolerance", "past_tolerance", "over"])
def test_verify_coverage_rejects_a_shared_stop_over_the_load_cap(second_kg, over):
    net, cfg = line_network(), CoverageConfig(max_stop_load_kg=520.0)
    demands = [DemandPoint(0, 400.0, 0.0, 0, 260.0),
               DemandPoint(1, 400.0, 0.0, 0, second_kg)]
    # the two demands merged into one stop, its mass right
    merged = [StopPoint(0, 2, 260.0 + second_kg, 1800.0, [0, 1])]
    if not over:
        assert verify_coverage(merged, demands, net, cfg).ok
        return
    with pytest.raises(DataError, match=r"stop 0 lists 2 demands and is assigned "
                                        r"5\d\d\.\d+ kg, over the 520\.0 kg "
                                        r"max_stop_load_kg"):
        verify_coverage(merged, demands, net, cfg)


def test_verify_coverage_allows_a_lone_demand_over_the_load_cap():
    net, cfg = line_network(), CoverageConfig(max_stop_load_kg=520.0)
    demands = [DemandPoint(0, 400.0, 0.0, 0, 600.0)]
    stops = place_stops(net, demands, cfg)
    report = verify_coverage(stops, demands, net, cfg)
    assert report.overflow_stop_ids == [0]
    assert report.ok


def repeated_id_instance():
    """A 3x3 city with two buildings that share demand id 1."""
    nodes, edges, _ = gen_synthetic_city(SyntheticCitySpec(seed=0))
    net = RoadNetwork(nodes, edges)
    demands = aggregate_demand(
        [(1, 50.0, 50.0, 10), (1, 550.0, 550.0, 10), (2, 300.0, 300.0, 10)],
        2.49)
    return net, demands, CoverageConfig(radius_m=150.0)


def test_place_stops_rejects_a_repeated_demand_id():
    net, demands, cfg = repeated_id_instance()
    with pytest.raises(ValueError, match="demand id 1 appears more than once"):
        place_stops(net, demands, cfg)


def test_verify_coverage_rejects_a_repeated_demand_id():
    net, demands, cfg = repeated_id_instance()
    # the stops a plan of the first and last demand alone would give
    stops = place_stops(net, [demands[0], demands[2]], cfg)
    with pytest.raises(ValueError, match="demand id 1 appears more than once"):
        verify_coverage(stops, demands, net, cfg)


@pytest.mark.parametrize("again", [0, 1], ids=["same_stop", "second_stop"])
def test_verify_coverage_rejects_a_demand_listed_twice(again):
    net, cfg = line_network(), CoverageConfig(radius_m=300.0)
    demands = aggregate_demand([(0, 400.0, 0.0, 8), (1, 1400.0, 0.0, 8)], 2.49)
    stops = place_stops(net, demands, cfg)
    assert [s.covered_demand_ids for s in stops] == [[0], [1]]
    # stop ``again`` lists demand 0 once more, with its mass, so every
    # stop's load still matches and every demand is covered
    stops[again].covered_demand_ids.append(0)
    stops[again].assigned_demand_kg += demands[0].waste_kg_day
    with pytest.raises(PlannerError) as info:
        verify_coverage(stops, demands, net, cfg)
    assert type(info.value) is PlannerError  # an internal error, not the input's
    assert str(info.value) == (f"demand 0 is listed under stop {stops[0].id} "
                               f"and again under stop {stops[again].id}")


def bad_mass_demands(kg: float) -> list[DemandPoint]:
    """Demand 1 of mass ``kg`` and demand 2 of 3.0 kg, both on node 1."""
    return [DemandPoint(1, 200.0, 0.0, 1, kg), DemandPoint(2, 200.0, 0.0, 1, 3.0)]


@pytest.mark.parametrize("kg", [-5.0, math.nan, math.inf])
def test_place_stops_rejects_a_mass_that_is_negative_or_not_finite(kg):
    # at -5.0 kg the two demands once made one stop of -2.0 kg
    with pytest.raises(ValueError, match="demand 1 has mass"):
        place_stops(line_network(n=3), bad_mass_demands(kg),
                    CoverageConfig(radius_m=150.0))


@pytest.mark.parametrize("kg", [-5.0, math.nan, math.inf])
def test_verify_coverage_rejects_a_mass_that_is_negative_or_not_finite(kg):
    net, cfg = line_network(n=3), CoverageConfig(radius_m=150.0)
    demands = bad_mass_demands(kg)
    # the stops a plan of the good demand alone would give
    stops = place_stops(net, demands[1:], cfg)
    with pytest.raises(ValueError, match="demand 1 has mass"):
        verify_coverage(stops, demands, net, cfg)


def synthetic_instance(seed: int):
    spec = SyntheticCitySpec(
        seed=seed,
        grid_x=2 + seed % 3,
        grid_y=2 + (seed // 3) % 3,
        buildings_per_block=2 + seed % 5,
        units_per_building=4 + seed % 6,
    )
    nodes, edges, buildings = gen_synthetic_city(spec)
    net = RoadNetwork(nodes, edges)
    demands = aggregate_demand(buildings, 2.49)
    return net, demands


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_full_coverage_and_conservation_on_random_cities(mode):
    for seed in range(25):
        net, demands = synthetic_instance(seed)
        cfg = CoverageConfig(distance_mode=mode)
        stops = place_stops(net, demands, cfg)
        report = verify_coverage(stops, demands, net, cfg)
        assert report.ok
        # each demand assigned to exactly one stop
        assigned = sorted(i for s in stops for i in s.covered_demand_ids)
        assert assigned == sorted(d.id for d in demands)
        # identical float multisets sum identically under fsum
        assert math.fsum(s.assigned_demand_kg for s in stops) == pytest.approx(
            math.fsum(d.waste_kg_day for d in demands), rel=1e-12
        )
        by_id = {d.id: d for d in demands}
        for s in stops:
            if s.id not in report.overflow_stop_ids:
                assert s.assigned_demand_kg <= cfg.max_stop_load_kg + 1e-9
            assert s.assigned_demand_kg == math.fsum(
                by_id[i].waste_kg_day for i in s.covered_demand_ids
            )


def test_place_stops_is_deterministic():
    net, demands = synthetic_instance(11)
    cfg = CoverageConfig()
    a = place_stops(net, demands, cfg)
    b = place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in a] == [
        (s.node, s.covered_demand_ids) for s in b
    ]


def test_greedy_stop_count_within_log_bound_of_optimum():
    rng = random.Random(555)
    for _ in range(12):
        net, demands = synthetic_instance(rng.randint(0, 8))
        candidates = net.node_ids[:12]
        cfg = CoverageConfig(
            candidate_nodes=tuple(candidates),
            max_stop_load_kg=1e9,  # pure set cover: load never binds
        )
        try:
            stops = place_stops(net, demands, cfg)
        except UncoverableDemand:
            continue
        # independent cover sets from scratch, by direct distance recompute
        from mswplan.network import _search, snap as snap_node

        cover = {}
        snapped = {d.id: snap_node(net, (d.x_m, d.y_m), cfg.radius_m)
                   for d in demands}
        for c in candidates:
            res = _search(net, c, "distance")
            cover[c] = {
                d.id for d in demands
                if res.cost.get(snapped[d.id], math.inf) <= cfg.radius_m + 1e-9
            }
        universe = {d.id for d in demands}
        optimum = min_cover_size_exhaustive(cover, universe)
        assert optimum is not None
        n = len(universe)
        assert len(stops) <= (1 + math.log(n)) * optimum + 1e-9


def test_building_and_stop_tables_round_trip(tmp_path):
    rows = [(1, 10.5, 20.25, 8), (2, 30.0, 40.0, 0)]
    bpath = str(tmp_path / "buildings.csv")
    write_buildings(rows, bpath)
    assert load_buildings(bpath) == rows

    net = line_network()
    demands = aggregate_demand(rows, 2.49)
    cfg = CoverageConfig(distance_mode="euclidean", radius_m=500.0)
    stops = place_stops(net, demands, cfg)
    spath = str(tmp_path / "stops.csv")
    write_stops(stops, spath)
    back = load_stops(spath)
    assert [(s.id, s.node, s.covered_demand_ids) for s in back] == [
        (s.id, s.node, s.covered_demand_ids) for s in stops
    ]
    assert back[0].assigned_demand_kg == stops[0].assigned_demand_kg


def test_stop_row_with_blank_service_time_rejected(tmp_path):
    path = tmp_path / "stops.csv"
    path.write_text("stop_id,node_id,assigned_kg,service_time_s,covered_ids\n"
                    "0,1,10.0,1800.0,1\n"
                    "1,2,10.0,,2\n")
    with pytest.raises(DataError, match=r"bad stop row \['1', '2', '10\.0', '', '2'\]"):
        load_stops(str(path))


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_building_with_non_finite_coordinate_rejected(tmp_path, x):
    path = tmp_path / "buildings.csv"
    path.write_text(f"id,x_m,y_m,dwelling_units\n1,0.0,0.0,8\n7,{x},5.0,8\n")
    with pytest.raises(DataError, match=rf"{path}: building 7 has non-finite"):
        load_buildings(str(path))


def test_repeated_building_id_rejected(tmp_path):
    path = tmp_path / "buildings.csv"
    path.write_text("id,x_m,y_m,dwelling_units\n"
                    "3,0.0,0.0,8\n4,10.0,0.0,8\n3,20.0,0.0,8\n")
    with pytest.raises(DataError, match=rf"{path}: building id 3 appears more"):
        load_buildings(str(path))
