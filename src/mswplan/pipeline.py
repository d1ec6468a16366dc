"""End-to-end scenario runs: ingest, cover, route, assess, emit.

Configuration is a flat ``key=value`` text file with dotted section
keys (``fleet.capacity_kg=4000``); a key it does not read, or a key
given twice, is a configuration error. Relative paths are resolved
against the config file's directory. The "existing" scenario is
supplied as a summary block rather than re-solved: the incumbent
system is observed, not optimized.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from . import coverage as cov
from . import impact, network, vrp
from .errors import ConfigError, PlannerError, StageError
from .geometry import route_geometry, write_geojson

_SUMMARY_NUMERIC = [f.name for f in fields(impact.ScenarioSummary) if f.name != "name"]


def parse_kv_file(path: str) -> dict[str, str]:
    """Read ``key=value`` lines; '#' starts a comment, blanks ignored."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def reject_unknown_keys(path: str, kv: dict[str, str], known) -> None:
    """Raise a ConfigError naming every key of ``kv`` not in ``known``."""
    if unknown := sorted(set(kv) - set(known)):
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")


def _get_float(kv: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(kv[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {kv[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {kv[key]!r}")
    return value


def _get_int(kv: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(kv[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {kv[key]!r}") from exc


def summary_from_mapping(kv: dict[str, str], prefix: str = "") -> impact.ScenarioSummary:
    """Build a ScenarioSummary from flat keys like ``<prefix>total_km``."""
    values = {}
    for name in _SUMMARY_NUMERIC:
        key = prefix + name
        if name in ("n_trucks", "n_stops"):
            values[name] = _get_int(kv, key, 0 if name == "n_stops" else None)
        else:
            default = 0.0 if name.endswith("_day") else None
            values[name] = _get_float(kv, key, default)
    try:
        return impact.ScenarioSummary(name=kv.get(prefix + "name", "scenario"),
                                      **values)
    except PlannerError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise ConfigError(f"bad summary block {prefix!r}: {exc}") from exc


def load_summary(path: str) -> impact.ScenarioSummary:
    kv = parse_kv_file(path)
    reject_unknown_keys(path, kv, {"name", *_SUMMARY_NUMERIC})
    return summary_from_mapping(kv)


def write_summary(summary: impact.ScenarioSummary, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"name={summary.name}\n")
        for name in _SUMMARY_NUMERIC:
            value = getattr(summary, name)
            if name in ("n_trucks", "n_stops"):
                fh.write(f"{name}={value}\n")
            else:
                fh.write(f"{name}={value!r}\n")


@dataclass
class ScenarioConfig:
    nodes_path: str
    edges_path: str
    buildings_path: str
    depot_x_m: float
    depot_y_m: float
    coverage: cov.CoverageConfig
    fleet: vrp.FleetSpec
    objective: str = "time"
    seed: int = 0
    generation_rate_kg_unit_day: float = 2.49
    turns_path: str | None = None
    depot_max_snap_m: float = 500.0
    scenario_name: str = "proposed"
    factors_path: str | None = None
    truck_class: str | None = None
    existing: impact.ScenarioSummary | None = None
    proposed_override: impact.ScenarioSummary | None = None


#: Every key ``load_scenario_config`` reads; any other key is an error.
SCENARIO_KEYS = frozenset(
    ["network.nodes", "network.edges", "network.turns", "buildings",
     "depot.x_m", "depot.y_m", "depot.max_snap_m", "objective", "seed",
     "generation_rate_kg_unit_day", "scenario_name", "factors", "truck_class"]
    + [f"{section}.{f.name}" for section, cls in (
        ("coverage", cov.CoverageConfig), ("fleet", vrp.FleetSpec),
        ("existing", impact.ScenarioSummary), ("proposed", impact.ScenarioSummary))
       for f in fields(cls)]
)


def _candidate_nodes(text: str) -> tuple[int, ...] | None:
    try:
        return tuple(int(t) for t in text.split(";")) if text else None
    except ValueError as exc:
        raise ConfigError("coverage.candidate_nodes: expected ;-separated "
                          "integers") from exc


def _section(kv: dict[str, str], section: str, cls, **parsers):
    """``cls`` from the ``<section>.<field>`` keys of ``kv``: a field without
    a key keeps its default, a field without a parser is a number."""
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if key in kv:
            parse = parsers.get(f.name)
            values[f.name] = parse(kv[key]) if parse else _get_float(kv, key)
    # the messages of both classes start with the field name, so the
    # section prefix makes them name the key
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def load_scenario_config(path: str) -> ScenarioConfig:
    kv = parse_kv_file(path)
    reject_unknown_keys(path, kv, SCENARIO_KEYS)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key: str, required: bool = True) -> str | None:
        if key not in kv:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return None
        p = kv[key]
        full = p if os.path.isabs(p) else os.path.join(base, p)
        if not os.path.exists(full):
            raise ConfigError(f"key {key!r}: file not found: {full}")
        return full

    coverage_cfg = _section(kv, "coverage", cov.CoverageConfig, distance_mode=str,
                            candidate_nodes=_candidate_nodes)
    fleet = _section(kv, "fleet", vrp.FleetSpec)
    max_snap = _get_float(kv, "depot.max_snap_m", 500.0)
    if not max_snap >= 0:
        raise ConfigError(
            f"key 'depot.max_snap_m': must be non-negative, got {max_snap}")
    rate = _get_float(kv, "generation_rate_kg_unit_day", 2.49)
    if not rate > 0:
        raise ConfigError(
            f"key 'generation_rate_kg_unit_day': must be positive, got {rate}")
    objective = kv.get("objective", "time")
    if objective not in vrp.OBJECTIVES:
        raise ConfigError(f"objective must be one of {vrp.OBJECTIVES}")
    existing = None
    if any(k.startswith("existing.") for k in kv):
        existing = summary_from_mapping(kv, "existing.")
    proposed_override = None
    if any(k.startswith("proposed.") for k in kv):
        proposed_override = summary_from_mapping(kv, "proposed.")
    return ScenarioConfig(
        nodes_path=resolve("network.nodes"),
        edges_path=resolve("network.edges"),
        buildings_path=resolve("buildings"),
        turns_path=resolve("network.turns", required=False),
        depot_x_m=_get_float(kv, "depot.x_m"),
        depot_y_m=_get_float(kv, "depot.y_m"),
        depot_max_snap_m=max_snap,
        coverage=coverage_cfg,
        fleet=fleet,
        objective=objective,
        seed=_get_int(kv, "seed", 0),
        generation_rate_kg_unit_day=rate,
        scenario_name=kv.get("scenario_name", "proposed"),
        factors_path=resolve("factors", required=False),
        truck_class=kv.get("truck_class"),
        existing=existing,
        proposed_override=proposed_override,
    )


def summary_from_plan(
    name: str,
    plan: vrp.RoutePlan,
    metrics: vrp.RouteMetrics,
    fleet: vrp.FleetSpec,
    stops: list[cov.StopPoint],
    factors: impact.ImpactFactors | None = None,
) -> impact.ScenarioSummary:
    """Roll a solved plan up into the comparable scenario summary."""
    total_km = metrics.total_distance_m / 1000.0
    n_stops = len(stops)
    avg_stop_time = (
        math.fsum(s.service_time_s for s in stops) / n_stops if n_stops else 0.0
    )
    energy = co = co2 = nox = 0.0
    if factors is not None:
        energy = impact.energy_consumption(total_km, n_stops, factors)
        co, co2, nox = impact.emissions(total_km, n_stops, factors)
    return impact.ScenarioSummary(
        name=name,
        n_trucks=plan.fleet_size,
        truck_capacity_kg=fleet.capacity_kg,
        n_stops=n_stops,
        avg_stop_time_s=avg_stop_time,
        avg_route_km=metrics.avg_route_distance_m / 1000.0,
        total_km=total_km,
        avg_route_h=metrics.avg_route_time_s / 3600.0,
        total_time_h=metrics.total_work_s / 3600.0,
        energy_mj_day=energy,
        co_g_day=co,
        co2_g_day=co2,
        nox_g_day=nox,
    )


@dataclass
class PipelineResult:
    network: network.RoadNetwork
    demands: list[cov.DemandPoint]
    stops: list[cov.StopPoint]
    plan: vrp.RoutePlan
    metrics: vrp.RouteMetrics
    summary: impact.ScenarioSummary
    report: impact.ComparisonReport | None
    files: dict[str, str]


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(cfg: ScenarioConfig, out_dir: str = ".") -> PipelineResult:
    """coverage -> matrix -> vrp -> metrics -> impact, then emit files.

    Outputs are byte-identical for identical (config, seed). Each error
    is re-raised wrapped with the name of the failing stage.
    """
    net = _stage("network/load", network.load_network,
                 cfg.nodes_path, cfg.edges_path, cfg.turns_path)
    depot_node = _stage("network/snap", network.snap, net,
                        (cfg.depot_x_m, cfg.depot_y_m), cfg.depot_max_snap_m)
    buildings = _stage("demand/aggregate", cov.load_buildings, cfg.buildings_path)
    demands = _stage("demand/aggregate", cov.aggregate_demand,
                     buildings, cfg.generation_rate_kg_unit_day)
    stops = _stage("coverage/place_stops", cov.place_stops, net, demands,
                   cfg.coverage)
    audit = _stage("coverage/place_stops", cov.verify_coverage,
                   stops, demands, net, cfg.coverage)
    if not audit.ok:
        raise StageError(
            "coverage/place_stops",
            PlannerError(f"uncovered demands remain: {audit.uncovered_ids}"),
        )
    assigned = math.fsum(s.assigned_demand_kg for s in stops)
    demand_total = math.fsum(d.waste_kg_day for d in demands)
    if not math.isclose(assigned, demand_total, rel_tol=1e-9, abs_tol=1e-6):
        raise StageError(
            "coverage/place_stops",
            PlannerError(f"demand mass not conserved: {assigned} != {demand_total}"),
        )

    stop_nodes = sorted({s.node for s in stops})
    matrix_nodes = [depot_node] + [n for n in stop_nodes if n != depot_node]
    matrix = _stage("network/matrix", network.cost_matrix, net,
                    matrix_nodes, matrix_nodes, cfg.objective)
    plan = _stage("vrp/solve", vrp.solve_vrp, matrix, stops,
                  vrp.Depot(depot_node), cfg.fleet, cfg.objective, cfg.seed)
    planned_ids = sorted(s for t in plan.all_trips() for s in t.stop_ids)
    if planned_ids != sorted(s.id for s in stops):
        raise StageError("vrp/solve",
                         PlannerError("plan does not cover each stop exactly once"))
    metrics = _stage("vrp/metrics", vrp.route_metrics, plan, matrix, cfg.fleet)

    factors = None
    if cfg.factors_path:
        table = _stage("impact/summary", impact.load_factors, cfg.factors_path)
        cls = cfg.truck_class or (sorted(table)[0] if table else None)
        if cls is not None:
            if cls not in table:
                raise StageError(
                    "impact/summary",
                    ConfigError(f"truck_class {cls!r} not in factors file"),
                )
            factors = table[cls]
    summary = _stage("impact/summary", summary_from_plan, cfg.scenario_name,
                     plan, metrics, cfg.fleet, stops, factors)
    report = None
    if cfg.existing is not None:
        proposed = cfg.proposed_override or summary
        report = _stage("impact/compare", impact.compare_scenarios,
                        cfg.existing, proposed)

    os.makedirs(out_dir, exist_ok=True)
    files = {
        "stops": os.path.join(out_dir, "stops.csv"),
        "plan": os.path.join(out_dir, "plan.csv"),
        "routes": os.path.join(out_dir, "routes.geojson"),
        "summary": os.path.join(out_dir, "summary.cfg"),
    }

    def emit() -> None:
        cov.write_stops(stops, files["stops"])
        vrp.write_plan(plan, files["plan"])
        write_geojson(route_geometry(plan, net, matrix), files["routes"])
        write_summary(summary, files["summary"])
        if report is not None:
            files["comparison_table"] = os.path.join(out_dir, "comparison.csv")
            files["comparison_text"] = os.path.join(out_dir, "comparison.txt")
            with open(files["comparison_table"], "w") as fh:
                fh.write(impact.format_comparison_table(report))
            with open(files["comparison_text"], "w") as fh:
                fh.write(impact.format_comparison_text(report))

    _stage("emit", emit)
    return PipelineResult(
        network=net,
        demands=demands,
        stops=stops,
        plan=plan,
        metrics=metrics,
        summary=summary,
        report=report,
        files=files,
    )
