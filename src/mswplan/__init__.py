"""Municipal solid-waste collection planning toolkit.

Covers the full desk workflow: build a road network, aggregate
household demand, place collection stop points, route a capacitated
truck fleet with minimum travel time or distance, size the fleet
against the working shift, and compare scenarios by distance, time,
energy, and emissions.
"""

from . import errors
from .coverage import (
    CoverageConfig,
    CoverageReport,
    DemandPoint,
    StopPoint,
    aggregate_demand,
    place_stops,
    verify_coverage,
)
from .impact import (
    ComparisonReport,
    ImpactFactors,
    ScenarioSummary,
    calibrate_factors,
    compare_scenarios,
    daily_impacts,
    percent_improvement,
)
from .network import (
    UNREACHABLE,
    CostMatrix,
    Edge,
    Node,
    RoadNetwork,
    cost_matrix,
    shortest_path,
    snap,
)
from .pipeline import ScenarioConfig, load_scenario_config, run_pipeline
from .synth import SyntheticCitySpec, gen_synthetic_city
from .vrp import (
    FleetSpec,
    RoutePlan,
    Trip,
    route_metrics,
    size_fleet,
    solve_vrp,
    verify_plan,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "CoverageConfig", "CoverageReport", "DemandPoint", "StopPoint",
    "aggregate_demand", "place_stops", "verify_coverage",
    "ComparisonReport", "ImpactFactors", "ScenarioSummary",
    "calibrate_factors", "compare_scenarios", "daily_impacts",
    "percent_improvement",
    "UNREACHABLE", "CostMatrix", "Edge", "Node", "RoadNetwork",
    "cost_matrix", "shortest_path", "snap",
    "ScenarioConfig", "load_scenario_config", "run_pipeline",
    "SyntheticCitySpec", "gen_synthetic_city",
    "FleetSpec", "RoutePlan", "Trip", "route_metrics",
    "size_fleet", "solve_vrp", "verify_plan",
    "__version__",
]
