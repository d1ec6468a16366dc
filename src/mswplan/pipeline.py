"""End-to-end scenario runs: ingest, cover, route, assess, emit.

Configuration is a flat UTF-8 ``key=value`` text file with dotted
section keys (``fleet.capacity_kg=4000``); a key it does not read, or a
key given twice, is a configuration error. One reader,
:func:`read_fields`, turns such keys into a dataclass: the
``coverage.*`` and ``fleet.*`` sections, the ``existing.*`` and
``proposed.*`` summary blocks, ``compare`` summary files and ``synth``
spec files. Each field's type decides how its text is parsed, and a key
left out keeps the dataclass default, so every default is written once,
on its field. The top-level keys map onto :class:`ScenarioConfig`
fields through one table. Relative paths are resolved against the
config file's directory, and each must name a file. ``mswplan verify``
reads the network and demands through :func:`load_inputs`, as
:func:`run_pipeline` does. The "existing" scenario is supplied as a
summary block rather than re-solved: the incumbent system is observed,
not optimized.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

from . import coverage as cov
from . import impact, network, vrp
from .errors import (ConfigError, DataError, InconsistentSummary, PlannerError,
                     StageError)
from .geometry import route_geometry, write_geojson


def parse_kv_file(path: str, known) -> dict[str, str]:
    """Read UTF-8 ``key=value`` lines; '#' starts a comment, blanks ignored.
    A key not in ``known`` is a ConfigError, raised once the whole file
    is read and naming every such key."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    if unknown := sorted(set(out) - set(known)):
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    return out


#: Field annotation -> (parser of a key's text, what a bad text is not).
#: A field of any other type takes the text as it is.
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "tuple[int, ...] | None": (
        lambda text: tuple(int(t) for t in text.split(";")) if text else None,
        "a ;-separated list of integers"),
}


def _field_values(kv: dict[str, str], cls, field_of: dict[str, str]) -> dict:
    """``{field: value}`` parsed from the keys of ``kv`` that ``field_of``
    maps to fields of ``cls``. A number must be finite, and a field
    without a default needs its key; errors name the key."""
    by_name = {f.name: f for f in fields(cls)}
    values = {}
    for key, name in field_of.items():
        f = by_name[name]
        if key not in kv:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required key {key!r}")
            continue
        # a type, or its name under postponed annotations
        parse, what = _PARSERS.get(getattr(f.type, "__name__", f.type), (str, ""))
        try:
            values[name] = value = parse(kv[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not {what}: {kv[key]!r}") from exc
        # NaN, an infinity and an integer beyond the float range all fail
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"key {key!r}: not a finite number: {kv[key]!r}")
    return values


def read_fields(kv: dict[str, str], cls, prefix: str = ""):
    """``cls`` built from the ``<prefix><field>`` keys of ``kv``.

    An int or float field takes a finite number and any other field the
    text (a tuple of node ids, ';'-separated). A field without a key
    keeps its default. A ValueError from ``cls`` becomes a ConfigError;
    the section classes start those messages with the field name, so
    ``prefix`` makes them name the key.
    """
    values = _field_values(kv, cls, {prefix + f.name: f.name for f in fields(cls)})
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


#: The values a summary takes for the keys a summary file may leave out
#: although ScenarioSummary has no default for them.
_SUMMARY_DEFAULTS = {"name": "scenario", "n_stops": "0"}


def summary_from_mapping(kv: dict[str, str], prefix: str = "") -> impact.ScenarioSummary:
    """Build a ScenarioSummary from flat keys like ``<prefix>total_km``;
    a summary that fails its consistency gate is a configuration error."""
    defaults = {prefix + k: v for k, v in _SUMMARY_DEFAULTS.items()}
    try:
        return read_fields(defaults | kv, impact.ScenarioSummary, prefix)
    except InconsistentSummary as exc:
        raise ConfigError(str(exc)) from exc


def load_summary(path: str) -> impact.ScenarioSummary:
    return summary_from_mapping(
        parse_kv_file(path, [f.name for f in fields(impact.ScenarioSummary)]))


def write_summary(summary: impact.ScenarioSummary, path: str) -> None:
    """Write the file :func:`load_summary` reads. ``str`` of a float is its
    ``repr``, which reads back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{f.name}={getattr(summary, f.name)}\n" for f in fields(summary))


@dataclass(frozen=True)
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

    def __post_init__(self):
        if not self.depot_max_snap_m >= 0:
            raise ConfigError("key 'depot.max_snap_m': must be non-negative, "
                              f"got {self.depot_max_snap_m}")
        if not self.generation_rate_kg_unit_day > 0:
            raise ConfigError("key 'generation_rate_kg_unit_day': must be "
                              f"positive, got {self.generation_rate_kg_unit_day}")
        if self.objective not in network.METRICS:
            raise ConfigError(f"objective must be one of {network.METRICS}")
        if self.truck_class is not None and self.factors_path is None:
            raise ConfigError("key 'truck_class': needs a 'factors' file")
        if self.proposed_override is not None and self.existing is None:
            raise ConfigError("keys 'proposed.*': need an 'existing.*' block "
                              "to compare with")


#: Each top-level scenario key and the ScenarioConfig field it sets.
_TOP_LEVEL_KEYS = {
    "network.nodes": "nodes_path",
    "network.edges": "edges_path",
    "network.turns": "turns_path",
    "buildings": "buildings_path",
    "factors": "factors_path",
    "depot.x_m": "depot_x_m",
    "depot.y_m": "depot_y_m",
    "depot.max_snap_m": "depot_max_snap_m",
    "objective": "objective",
    "seed": "seed",
    "generation_rate_kg_unit_day": "generation_rate_kg_unit_day",
    "scenario_name": "scenario_name",
    "truck_class": "truck_class",
}

#: Every key ``load_scenario_config`` reads; any other key is an error.
SCENARIO_KEYS = frozenset(_TOP_LEVEL_KEYS).union(
    f"{section}.{f.name}" for section, cls in (
        ("coverage", cov.CoverageConfig), ("fleet", vrp.FleetSpec),
        ("existing", impact.ScenarioSummary), ("proposed", impact.ScenarioSummary))
    for f in fields(cls))


def load_scenario_config(path: str) -> ScenarioConfig:
    kv = parse_kv_file(path, SCENARIO_KEYS)
    base = os.path.dirname(os.path.abspath(path))
    values = _field_values(kv, ScenarioConfig, _TOP_LEVEL_KEYS)
    for key, name in _TOP_LEVEL_KEYS.items():
        if name.endswith("_path") and name in values:
            # joining keeps an absolute path as it is
            values[name] = full = os.path.join(base, values[name])
            # an empty value joins to the directory itself
            if not os.path.isfile(full):
                raise ConfigError(f"key {key!r}: not a file: {full}")
    existing, proposed = (
        summary_from_mapping(kv, prefix) if any(k.startswith(prefix) for k in kv)
        else None for prefix in ("existing.", "proposed."))
    return ScenarioConfig(
        coverage=read_fields(kv, cov.CoverageConfig, "coverage."),
        fleet=read_fields(kv, vrp.FleetSpec, "fleet."),
        existing=existing,
        proposed_override=proposed,
        **values,
    )


def summary_from_plan(
    name: str,
    plan: vrp.RoutePlan,
    metrics: vrp.RouteMetrics,
    fleet: vrp.FleetSpec,
    factors: impact.ImpactFactors | None = None,
) -> impact.ScenarioSummary:
    """Roll a solved plan up into the comparable scenario summary."""
    total_km = metrics.total_distance_m / 1000.0
    n_stops = len(plan.stops)
    avg_stop_time = (
        math.fsum(s.service_time_s for s in plan.stops.values()) / n_stops
        if n_stops else 0.0
    )
    impacts = impact.daily_impacts(total_km, n_stops, factors or impact.ImpactFactors())
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
        **impacts,
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
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_inputs(cfg: ScenarioConfig
                ) -> tuple[network.RoadNetwork, int, list[cov.DemandPoint]]:
    """The network, the depot's node and the demand points, stage by stage."""
    net = _stage("network/load", network.load_network,
                 cfg.nodes_path, cfg.edges_path, cfg.turns_path)
    depot_node = _stage("network/snap", network.snap, net,
                        (cfg.depot_x_m, cfg.depot_y_m), cfg.depot_max_snap_m)
    buildings = _stage("demand/aggregate", cov.load_buildings, cfg.buildings_path)
    demands = _stage("demand/aggregate", cov.aggregate_demand,
                     buildings, cfg.generation_rate_kg_unit_day)
    return net, depot_node, demands


def run_pipeline(cfg: ScenarioConfig, out_dir: str = ".") -> PipelineResult:
    """inputs -> coverage -> matrix -> vrp -> metrics -> impact, then emit.

    Outputs are byte-identical for identical (config, seed). Each error
    is re-raised wrapped with the name of the failing stage.
    """
    net, depot_node, demands = load_inputs(cfg)
    stops = _stage("coverage/place_stops", cov.place_stops, net, demands,
                   cfg.coverage)
    audit = _stage("coverage/place_stops", cov.verify_coverage,
                   stops, demands, net, cfg.coverage)
    if not audit.ok:
        raise StageError(
            "coverage/place_stops",
            PlannerError(f"uncovered demands remain: {audit.uncovered_ids}"),
        )

    matrix_nodes = vrp.instance_nodes(stops, depot_node)
    matrix = _stage("network/matrix", network.cost_matrix, net,
                    matrix_nodes, matrix_nodes, cfg.objective)
    plan = _stage("vrp/solve", vrp.solve_vrp, matrix, stops, depot_node,
                  cfg.fleet, seed=cfg.seed)
    _stage("vrp/solve", vrp.verify_plan, plan, matrix, cfg.fleet)
    metrics = _stage("vrp/metrics", vrp.route_metrics, plan)

    factors = None
    if cfg.factors_path:
        table = _stage("impact/summary", impact.load_factors, cfg.factors_path)
        cls = cfg.truck_class or min(table)
        if cls not in table:
            raise StageError(
                "impact/summary",
                ConfigError(f"truck_class {cls!r} not in factors file"),
            )
        factors = table[cls]
    summary = _stage("impact/summary", summary_from_plan, cfg.scenario_name,
                     plan, metrics, cfg.fleet, factors)
    report = None
    if cfg.existing is not None:
        proposed = cfg.proposed_override or summary
        report = _stage("impact/compare", impact.compare_scenarios,
                        cfg.existing, proposed)

    files = {
        "stops": os.path.join(out_dir, "stops.csv"),
        "plan": os.path.join(out_dir, "plan.csv"),
        "routes": os.path.join(out_dir, "routes.geojson"),
        "summary": os.path.join(out_dir, "summary.cfg"),
    }

    def emit() -> None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            cov.write_stops(stops, files["stops"])
            vrp.write_plan(plan, files["plan"])
            write_geojson(route_geometry(plan, net, matrix), files["routes"])
            write_summary(summary, files["summary"])
            if report is not None:
                files["comparison_table"] = os.path.join(out_dir, "comparison.csv")
                files["comparison_text"] = os.path.join(out_dir, "comparison.txt")
                with open(files["comparison_table"], "w", encoding="utf-8") as fh:
                    fh.write(impact.format_comparison_table(report))
                with open(files["comparison_text"], "w", encoding="utf-8") as fh:
                    fh.write(impact.format_comparison_text(report))
        except OSError as exc:
            raise DataError(f"cannot write the outputs to {out_dir}: {exc}") from exc

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
