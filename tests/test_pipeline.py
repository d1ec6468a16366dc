import json
import math
import os

from dataclasses import FrozenInstanceError, dataclass, replace

import pytest

from vrp_oracle import brute_force_vrp
from mswplan.coverage import CoverageConfig
from mswplan.errors import ConfigError, NoNodeWithinRange, StageError
from mswplan.impact import ScenarioSummary
from mswplan.pipeline import (
    SCENARIO_KEYS,
    ScenarioConfig,
    load_scenario_config,
    load_summary,
    parse_kv_file,
    run_pipeline,
    write_summary,
)
from mswplan.vrp import FleetSpec

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def demo_path(*parts: str) -> str:
    return os.path.abspath(os.path.join(DEMO, *parts))


def test_four_stop_demo_runs_and_matches_oracle(tmp_path):
    cfg = load_scenario_config(demo_path("four_stops", "scenario.cfg"))
    result = run_pipeline(cfg, str(tmp_path))
    assert len(result.stops) == 4
    assert all(s.assigned_demand_kg == pytest.approx(517.92) for s in result.stops)
    planned = sorted(s for t in result.plan.all_trips() for s in t.stop_ids)
    assert planned == [s.id for s in result.stops]
    # the heuristic plan must equal the enumerated optimum on 4 stops
    from mswplan.network import cost_matrix

    nodes = [result.plan.depot_node] + sorted(
        {s.node for s in result.stops} - {result.plan.depot_node}
    )
    matrix = cost_matrix(result.network, nodes, nodes, cfg.objective)
    oracle = brute_force_vrp(matrix, result.stops, result.plan.depot_node,
                             cfg.fleet)
    assert result.plan.cost == pytest.approx(oracle.cost)
    # one 8 km tour at 40 km/h
    assert result.plan.total_distance_m == pytest.approx(8000.0)
    assert result.plan.cost == pytest.approx(720.0)
    for name in ("stops", "plan", "routes", "summary"):
        assert os.path.exists(result.files[name])


def test_pipeline_is_byte_deterministic(tmp_path):
    cfg_path = demo_path("city3x3", "scenario.cfg")
    out_a = run_pipeline(load_scenario_config(cfg_path), str(tmp_path / "a")).files
    out_b = run_pipeline(load_scenario_config(cfg_path), str(tmp_path / "b")).files
    assert set(out_a) == set(out_b)
    for key in out_a:
        with open(out_a[key], "rb") as fa, open(out_b[key], "rb") as fb:
            assert fa.read() == fb.read(), key


def test_cross_stage_mass_conservation(tmp_path):
    cfg = load_scenario_config(demo_path("city3x3", "scenario.cfg"))
    result = run_pipeline(cfg, str(tmp_path))
    building_mass = math.fsum(d.waste_kg_day for d in result.demands)
    stop_mass = math.fsum(s.assigned_demand_kg for s in result.stops)
    trip_mass = math.fsum(t.load_kg for t in result.plan.all_trips())
    assert stop_mass == pytest.approx(building_mass, rel=1e-12)
    assert trip_mass == pytest.approx(building_mass, rel=1e-12)


def test_polyline_lengths_match_plan_distances(tmp_path):
    cfg = load_scenario_config(demo_path("city3x3", "scenario.cfg"))
    result = run_pipeline(cfg, str(tmp_path))
    with open(result.files["routes"]) as fh:
        collection = json.load(fh)
    assert collection["type"] == "FeatureCollection"
    trips = result.plan.all_trips()
    assert len(collection["features"]) == len(trips)
    for feature in collection["features"]:
        coords = feature["geometry"]["coordinates"]
        poly_len = math.fsum(
            math.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(coords[:-1], coords[1:])
        )
        stated = feature["properties"]["distance_m"]
        assert poly_len == pytest.approx(stated, rel=1e-6, abs=1e-6)


def test_depot_far_from_network_fails_in_snap_stage(tmp_path):
    cfg = load_scenario_config(demo_path("city3x3", "scenario.cfg"))
    cfg = replace(cfg, depot_x_m=99_000.0, depot_y_m=99_000.0)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, str(tmp_path))
    assert err.value.stage == "network/snap"
    assert isinstance(err.value.cause, NoNodeWithinRange)


def test_missing_config_keys_and_files_rejected(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("network.nodes=missing.csv\n")
    with pytest.raises(ConfigError):
        load_scenario_config(str(p))
    q = tmp_path / "noequals.cfg"
    q.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        load_scenario_config(str(q))


@pytest.mark.parametrize("value", ["", ".", "sub"], ids=["empty", "dot", "directory"])
@pytest.mark.parametrize("key", ["network.nodes", "network.edges", "network.turns",
                                 "buildings", "factors"])
def test_path_key_that_names_no_file_rejected(tmp_path, key, value):
    (tmp_path / "sub").mkdir()
    paths = {"network.nodes": demo_path("four_stops", "nodes.csv"),
             "network.edges": demo_path("four_stops", "edges.csv"),
             "buildings": demo_path("four_stops", "buildings.csv"),
             key: value}
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in paths.items())
                   + "depot.x_m=0\ndepot.y_m=-2000\n")
    with pytest.raises(ConfigError, match=f"^key '{key}': not a file: "):
        load_scenario_config(str(cfg))


def four_stops_config(tmp_path, extra: str = "") -> str:
    """The four_stops demo inputs under a config ending in ``extra``."""
    p = tmp_path / "scenario.cfg"
    p.write_text(
        f"network.nodes={demo_path('four_stops', 'nodes.csv')}\n"
        f"network.edges={demo_path('four_stops', 'edges.csv')}\n"
        f"buildings={demo_path('four_stops', 'buildings.csv')}\n"
        "depot.x_m=0\ndepot.y_m=-2000\n" + extra
    )
    return str(p)


def test_duplicate_config_key_rejected(tmp_path):
    path = four_stops_config(tmp_path, "coverage.radius_m=300\ncoverage.radius_m=400\n")
    with pytest.raises(ConfigError, match=r"scenario\.cfg:7: duplicate key "
                                          r"'coverage\.radius_m'"):
        load_scenario_config(path)


def test_unknown_config_keys_rejected(tmp_path):
    load_scenario_config(four_stops_config(tmp_path))
    path = four_stops_config(tmp_path, "coverage.radius=200\nexisting.nmae=x\n")
    with pytest.raises(ConfigError, match="coverage.radius, existing.nmae"):
        load_scenario_config(path)


def test_kv_file_names_its_unknown_keys_after_its_line_errors(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("b=1\na=2\nc=3\n")
    with pytest.raises(ConfigError) as info:
        parse_kv_file(str(path), ["a"])
    assert str(info.value) == f"{path}: unknown keys: b, c"
    path.write_text("b=1\na=2\nc\n")
    with pytest.raises(ConfigError, match=r"spec\.cfg:3: expected key=value"):
        parse_kv_file(str(path), ["a"])
    path.write_text("# a comment\na = 2\n")
    assert parse_kv_file(str(path), ["a", "b"]) == {"a": "2"}


@pytest.mark.parametrize("key", ["fleet.speed_kmh", "fleet.crew_size",
                                 "fleet.stop_service_s"])
def test_removed_fleet_keys_rejected(tmp_path, key):
    with pytest.raises(ConfigError, match=key):
        load_scenario_config(four_stops_config(tmp_path, f"{key}=600\n"))


def test_minimal_config_takes_the_scenario_config_defaults(tmp_path, monkeypatch):
    import mswplan.pipeline as pipeline

    path = four_stops_config(tmp_path)  # the required keys only
    cfg = load_scenario_config(path)
    assert cfg == ScenarioConfig(cfg.nodes_path, cfg.edges_path,
                                 cfg.buildings_path, 0.0, -2000.0,
                                 CoverageConfig(), FleetSpec())

    # the loader passes no value for a key it was not given, so a default
    # changed on the class is the loader's default too
    @dataclass(frozen=True)
    class Shifted(ScenarioConfig):
        objective: str = "distance"
        seed: int = 42
        generation_rate_kg_unit_day: float = 3.25
        depot_max_snap_m: float = 75.0
        scenario_name: str = "shifted"

    monkeypatch.setattr(pipeline, "ScenarioConfig", Shifted)
    shifted = load_scenario_config(path)
    assert (shifted.objective, shifted.seed, shifted.generation_rate_kg_unit_day,
            shifted.depot_max_snap_m, shifted.scenario_name) == \
        ("distance", 42, 3.25, 75.0, "shifted")


def test_candidate_nodes_key_reads_a_list_of_node_ids(tmp_path):
    cfg = load_scenario_config(four_stops_config(
        tmp_path, "coverage.candidate_nodes=1;5;9\n"))
    assert cfg.coverage.candidate_nodes == (1, 5, 9)
    with pytest.raises(ConfigError, match="coverage.candidate_nodes"):
        load_scenario_config(four_stops_config(
            tmp_path, "coverage.candidate_nodes=1;x\n"))


def test_candidate_nodes_key_rejects_a_repeated_node(tmp_path):
    # each candidate costs one search; a repeat would search it twice
    with pytest.raises(ConfigError,
                       match="coverage.candidate_nodes lists node 5 twice"):
        load_scenario_config(four_stops_config(
            tmp_path, "coverage.candidate_nodes=0;5;5;10\n"))


@pytest.mark.parametrize("field, value, message", [
    ("depot_max_snap_m", -5.0, "'depot.max_snap_m': must be non-negative"),
    ("generation_rate_kg_unit_day", 0.0,
     "'generation_rate_kg_unit_day': must be positive"),
    ("generation_rate_kg_unit_day", math.nan,
     "'generation_rate_kg_unit_day': must be positive"),
    ("objective", "fastest", "objective must be one of"),
    # keys that only qualify another input, which is missing
    ("truck_class", "4t", "key 'truck_class': needs a 'factors' file"),
    ("proposed_override", ScenarioSummary("p", 1, 4000, 1, 60, 1, 1, 1, 1),
     r"keys 'proposed\.\*': need an 'existing\.\*' block"),
])
def test_scenario_config_checks_its_values(field, value, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig("n.csv", "e.csv", "b.csv", 0.0, 0.0, CoverageConfig(),
                       FleetSpec(), **{field: value})


def test_readme_config_block_lists_the_keys_the_loader_reads():
    with open(os.path.join(DEMO, "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = {line.split("=", 1)[0] for line in block.splitlines() if line}
    assert documented <= SCENARIO_KEYS
    blocks = {k for k in SCENARIO_KEYS if k.startswith(("existing.", "proposed."))}
    assert SCENARIO_KEYS - blocks <= documented


def test_baseline_blocks_reproduce_reference_percentages(tmp_path):
    cfg = load_scenario_config(demo_path("city3x3", "scenario_with_baseline.cfg"))
    result = run_pipeline(cfg, str(tmp_path))
    assert result.report is not None
    imp = result.report.improvements
    assert imp["avg_route_distance_km"] == pytest.approx(39.1, abs=0.05)
    assert imp["avg_route_time_h"] == pytest.approx(77.4, abs=0.05)
    assert imp["total_time_h"] == pytest.approx(26.48, abs=0.01)
    assert imp["co_g_day"] == pytest.approx(31.7, abs=0.05)
    assert imp["co2_g_day"] == pytest.approx(43.1, abs=0.05)
    assert imp["nox_g_day"] == pytest.approx(55.6, abs=0.05)
    assert imp["total_distance_km"] == pytest.approx(-90.6, abs=0.05)
    with open(result.files["comparison_table"]) as fh:
        table = fh.read()
    assert "26.5%" in table and "-90.6%" in table


def test_summary_file_round_trip(tmp_path):
    summary = ScenarioSummary("round-trip", 3, 4000, 12, 1800,
                              10.0, 30.0, 2.0, 6.0, 100.0, 1.0, 2.0, 3.0)
    path = str(tmp_path / "summary.cfg")
    write_summary(summary, path)
    assert load_summary(path) == summary


def test_factors_feed_summary_emissions(tmp_path):
    from mswplan.impact import ImpactFactors, write_factors

    factors_path = str(tmp_path / "factors.csv")
    write_factors(
        {"4t": ImpactFactors(energy_mj_per_km=100.0, co2_g_per_km=20.0)},
        factors_path,
    )
    cfg = load_scenario_config(demo_path("city3x3", "scenario.cfg"))
    cfg = replace(cfg, factors_path=factors_path, truck_class="4t")
    result = run_pipeline(cfg, str(tmp_path / "out"))
    total_km = result.summary.total_km
    assert result.summary.energy_mj_day == pytest.approx(100.0 * total_km)
    assert result.summary.co2_g_day == pytest.approx(20.0 * total_km)


def test_config_is_frozen_and_replace_runs_its_checks():
    # a field set after construction would skip __post_init__
    cfg = load_scenario_config(demo_path("city3x3", "scenario.cfg"))
    with pytest.raises(FrozenInstanceError):
        cfg.truck_class = "x"
    with pytest.raises(ConfigError, match="key 'truck_class': needs a 'factors' file"):
        replace(cfg, truck_class="x")


def test_shift_too_short_config_fails_in_solve_stage(tmp_path):
    cfg = load_scenario_config(demo_path("four_stops", "scenario.cfg"))
    cfg = replace(cfg, fleet=FleetSpec(shift_s=2000.0))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, str(tmp_path))
    assert err.value.stage == "vrp/solve"


def test_four_stop_outputs_match_frozen_golden_files(tmp_path):
    # golden files were produced once by this pipeline after the plan was
    # checked against the enumeration oracle; any drift is a regression
    cfg = load_scenario_config(demo_path("four_stops", "scenario.cfg"))
    result = run_pipeline(cfg, str(tmp_path))
    golden_dir = os.path.join(os.path.dirname(__file__), "golden", "four_stops")
    for key, path in result.files.items():
        golden = os.path.join(golden_dir, os.path.basename(path))
        with open(path, "rb") as got, open(golden, "rb") as want:
            assert got.read() == want.read(), key


def test_single_out_and_back_polyline():
    from mswplan.geometry import route_geometry
    from mswplan.network import Edge, Node, RoadNetwork, cost_matrix
    from mswplan.vrp import solve_vrp
    from helpers import make_stop

    net = RoadNetwork(
        [Node(0, 0, 0), Node(1, 1500, 0), Node(2, 3000, 0)],
        [Edge(0, 1, 1500, 40), Edge(1, 2, 1500, 40),
         Edge(2, 1, 1500, 40), Edge(1, 0, 1500, 40)],
    )
    matrix = cost_matrix(net, [0, 2], [0, 2], "time")
    plan = solve_vrp(matrix, [make_stop(7, 2, 100.0)], 0, FleetSpec(), seed=0)
    collection = route_geometry(plan, net, matrix)
    assert len(collection["features"]) == 1
    coords = collection["features"][0]["geometry"]["coordinates"]
    # out along 0-1-2 and back along 2-1-0
    assert coords == [[0.0, 0.0], [1500.0, 0.0], [3000.0, 0.0],
                      [1500.0, 0.0], [0.0, 0.0]]


def test_route_geometry_runs_no_search(monkeypatch):
    import mswplan.network as network
    from mswplan.geometry import route_geometry
    from mswplan.vrp import solve_vrp
    from helpers import make_stop

    net = network.load_network(demo_path("city3x3", "nodes.csv"),
                               demo_path("city3x3", "edges.csv"))
    stop_nodes = net.node_ids[1::3]
    stops = [make_stop(i, n, 300.0) for i, n in enumerate(stop_nodes)]
    searches = []
    real = network._search

    def counted(net, source, metric, bound=math.inf):
        searches.append(source)
        return real(net, source, metric, bound)

    monkeypatch.setattr(network, "_search", counted)
    nodes = [0] + stop_nodes
    matrix = network.cost_matrix(net, nodes, nodes, "time")
    assert searches == nodes
    plan = solve_vrp(matrix, stops, 0, FleetSpec(), seed=0)
    del searches[:]
    collection = route_geometry(plan, net, matrix)
    assert searches == []
    assert len(collection["features"]) == plan.n_trips > 0


def test_empty_plan_products():
    from mswplan.geometry import route_geometry
    from mswplan.network import Edge, Node, RoadNetwork
    from mswplan.vrp import RoutePlan, route_metrics, solve_vrp
    from helpers import matrix_from_points

    m = matrix_from_points({0: (0.0, 0.0)})
    plan = solve_vrp(m, [], 0, FleetSpec(), seed=0)
    assert plan == RoutePlan(trucks=[], objective="time", depot_node=0, stops={})
    assert brute_force_vrp(m, [], 0, FleetSpec()) == plan
    assert plan.fleet_size == 0
    assert plan.cost == 0.0
    metrics = route_metrics(plan)
    assert metrics.total_work_s == 0.0
    assert metrics.avg_route_time_s == 0.0
    net = RoadNetwork([Node(0, 0, 0), Node(1, 10, 0)], [Edge(0, 1, 10, 40)])
    assert route_geometry(plan, net, m) == {
        "type": "FeatureCollection", "features": [],
    }
