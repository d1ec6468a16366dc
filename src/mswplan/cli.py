"""Command-line entry points.

``verify CONFIG STOPS`` loads its inputs as ``plan CONFIG`` does, so a
stops table is audited at the settings it was planned at.

Exit codes: 0 success, 2 configuration error, 3 infeasible instance,
4 data error, 5 internal error (a cause of none of those kinds, such as
a broken planner invariant or an unexpected exception inside a stage).
"""

from __future__ import annotations

import sys
from dataclasses import fields, replace

import click

from . import coverage as cov
from . import impact, network, synth
from .errors import (
    ConfigError,
    DataError,
    InfeasibleStop,
    NegativeUnits,
    NoNodeWithinRange,
    NonpositiveBaseline,
    PlannerError,
    ShiftTooShort,
    StageError,
    UncoverableDemand,
    UnknownNode,
    Unreachable,
    UnreachableStop,
)
from .pipeline import (load_inputs, load_scenario_config, load_summary,
                       parse_kv_file, read_fields, run_pipeline)

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DATA = 4
EXIT_INTERNAL = 5

#: A zero baseline comes from a summary the user supplied: configuration.
_CONFIG = (ConfigError, NonpositiveBaseline)
_INFEASIBLE = (UncoverableDemand, InfeasibleStop, UnreachableStop,
               ShiftTooShort, Unreachable)
_DATA = (DataError, UnknownNode, NoNodeWithinRange, NegativeUnits)

#: ``--format`` name -> renderer of a comparison report
_FORMATS = {"table": impact.format_comparison_table,
            "text": impact.format_comparison_text}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, StageError):
        return _exit_code(exc.cause)
    if isinstance(exc, _CONFIG):
        return EXIT_CONFIG
    if isinstance(exc, _INFEASIBLE):
        return EXIT_INFEASIBLE
    if isinstance(exc, _DATA):
        return EXIT_DATA
    return EXIT_INTERNAL


class _PlannerGroup(click.Group):
    """Every command's PlannerError is ``error: ...`` on stderr and the
    exit code of its kind."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except PlannerError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(_exit_code(exc))


@click.group(cls=_PlannerGroup)
def main() -> None:
    """Plan municipal waste collection: stops, routes, fleet, impacts."""


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--objective", type=click.Choice(network.METRICS),
              default=None, help="Override the config objective.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", default=".", show_default=True,
              help="Directory for output files.")
@click.option("--format", "fmt", type=click.Choice(list(_FORMATS)),
              default="text", show_default=True,
              help="Stdout rendering of the comparison report, if any.")
def plan(config: str, objective: str | None, seed: int | None,
         out_dir: str, fmt: str) -> None:
    """Run the full pipeline for a scenario CONFIG file."""
    cfg = load_scenario_config(config)
    # the config is frozen: replace builds a new one, which runs its checks again
    if objective is not None:
        cfg = replace(cfg, objective=objective)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    result = run_pipeline(cfg, out_dir)
    s = result.summary
    click.echo(
        f"planned {s.n_stops} stops, {result.plan.n_trips} trips, "
        f"{s.n_trucks} trucks; {s.total_km:.1f} km, {s.total_time_h:.1f} h/day"
    )
    for name in ("stops", "plan", "routes", "summary"):
        click.echo(f"  {name}: {result.files[name]}")
    if result.report is not None:
        click.echo(_FORMATS[fmt](result.report), nl=False)


@main.command("synth")
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", default=".", show_default=True,
              help="Directory for nodes.csv / edges.csv / buildings.csv.")
def synth_city(specfile: str, out_dir: str) -> None:
    """Generate a synthetic grid city from a SPECFILE (key=value)."""
    kv = parse_kv_file(specfile, [f.name for f in fields(synth.SyntheticCitySpec)])
    paths = synth.write_city(read_fields(kv, synth.SyntheticCitySpec), out_dir)
    for name, path in paths.items():
        click.echo(f"  {name}: {path}")


@main.command()
@click.argument("existing", type=click.Path(exists=True, dir_okay=False))
@click.argument("proposed", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(list(_FORMATS)),
              default="table", show_default=True)
def compare(existing: str, proposed: str, fmt: str) -> None:
    """Compare two scenario summary files (key=value format)."""
    report = impact.compare_scenarios(load_summary(existing), load_summary(proposed))
    click.echo(_FORMATS[fmt](report), nl=False)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.argument("stops_file", metavar="STOPS",
                type=click.Path(exists=True, dir_okay=False))
def verify(config: str, stops_file: str) -> None:
    """Audit a STOPS table against the scenario CONFIG that planned it."""
    cfg = load_scenario_config(config)
    net, _, demands = load_inputs(cfg)
    stops = cov.load_stops(stops_file)
    report = cov.verify_coverage(stops, demands, net, cfg.coverage)
    click.echo(f"stops: {len(stops)}, demand points: {len(demands)}")
    click.echo(f"max stop load: {report.max_load_kg:.2f} kg")
    for bin_start, count in report.load_histogram.items():
        click.echo(f"  load {bin_start:>5}-{bin_start + 99} kg: {count}")
    if report.overflow_stop_ids:
        click.echo(f"overflow stops: {report.overflow_stop_ids}")
    if report.uncovered_ids:
        click.echo(f"UNCOVERED demand points: {report.uncovered_ids}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    click.echo("coverage OK: every demand point is served")


if __name__ == "__main__":
    main()
