"""Command-line tests.

``CASES`` is the table of command-line cases. A case copies a base input
directory (a demo or a ``SYNTHETIC`` city), applies its edits, runs its commands through
click's runner, and checks the last command's exit code and the text it
must print on stdout or stderr or write to a file. Each command before
the last must exit 0, and a failing last command must write no ``{out}``
directory. A case's id is the name tier-1 prints for it: cases sharing
the name before ``[`` are the parameters of one test. To add a case,
add one row. Cases that monkeypatch, or that check more than one
command, are the functions after the table.
"""

import csv
import os
import re
import shutil
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import run_under_ascii_locale, turn_rows, uturn_and_bend_penalties
from mswplan import coverage as cov
from mswplan import vrp
from mswplan.cli import main
from mswplan.errors import StageError
from mswplan.network import load_edges, load_nodes
from mswplan.pipeline import load_scenario_config, load_summary, run_pipeline

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = Path(__file__).resolve().parent / "golden" / "four_stops"

#: The seed-1 synthetic cities: spec file, then the keys their scenario
#: adds to the inputs and the depot at (0, 0). city16 is the
#: sparse_sprawl shape (the radius-bounded coverage search and the grid
#: snap at benchmark scale); city9 the dense_city one, where snapping
#: dominates coverage.
SYNTHETIC = {
    "city16": ("seed=1\ngrid_x=16\ngrid_y=16\nbuildings_per_block=1\n",
               "coverage.radius_m=800\ncoverage.max_stop_load_kg=4000\n"),
    "city9": ("seed=1\ngrid_x=9\ngrid_y=9\nbuildings_per_block=7\n", ""),
}


class Inputs:
    """The base input directories, each built when first asked for.

    A demo base is a copy of its ``demo/`` directory; four_stops also
    holds its golden ``stops.csv``. A synthetic base holds the city
    ``mswplan synth`` writes, its ``scenario.cfg`` and the ``stops.csv``
    ``mswplan plan`` makes of it.
    """

    def __init__(self, root: Path):
        self.root = root
        self.built: dict[str, Path] = {}

    def base(self, name: str) -> Path:
        if name not in self.built:
            path = self.built[name] = self.root / name
            if name in SYNTHETIC:
                self._synthesise(name, path)
            else:
                shutil.copytree(DEMO / name, path)
            if name == "four_stops":
                shutil.copy(GOLDEN / "stops.csv", path)
        return self.built[name]

    @staticmethod
    def _synthesise(name: str, path: Path) -> None:
        spec, keys = SYNTHETIC[name]
        spec_file = path.parent / f"{name}.spec"
        spec_file.write_text(spec)
        runner = CliRunner()
        made = runner.invoke(main, ["synth", str(spec_file), "--out", str(path)])
        assert made.exit_code == 0, made.output
        (path / "scenario.cfg").write_text(
            "network.nodes=nodes.csv\nnetwork.edges=edges.csv\n"
            "buildings=buildings.csv\ndepot.x_m=0\ndepot.y_m=0\n" + keys)
        plan = path.parent / f"{name}.plan"
        ran = runner.invoke(main, ["plan", str(path / "scenario.cfg"), "--out", str(plan)])
        assert ran.exit_code == 0, ran.output
        shutil.copy(plan / "stops.csv", path)

    def copy(self, base: str | None, dest: Path, *edits) -> Path:
        """``dest``: a copy of ``base`` (empty for None) with ``edits`` applied."""
        if base is None:
            dest.mkdir()
        else:
            shutil.copytree(self.base(base), dest)
        for edit in edits:
            edit(dest)
        return dest


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Inputs:
    return Inputs(tmp_path_factory.mktemp("inputs"))


# Edits: each returns a function of the case directory.

def config(*lines: str, drop: tuple[str, ...] = (), name: str = "scenario.cfg"):
    """Config ``name`` with ``lines`` in place of the lines of their keys,
    or appended, and without the lines of keys starting with a ``drop``
    prefix."""
    gone = tuple(line.split("=")[0] + "=" for line in lines) + drop

    def edit(d: Path) -> None:
        kept = [ln for ln in (d / name).read_text(encoding="utf-8").splitlines(True)
                if not ln.startswith(gone)]
        (d / name).write_text("".join(kept + [ln + "\n" for ln in lines]),
                              encoding="utf-8")
    return edit


def write(name: str, text: str):
    """File ``name`` holding ``text``."""
    return lambda d: (d / name).write_text(text, encoding="utf-8")


def rows(name: str, *lines: str, at: int | None = None):
    """``lines`` appended to file ``name``, or inserted before line ``at``
    (the header being line 0)."""
    def edit(d: Path) -> None:
        old = (d / name).read_text().splitlines(True)
        at_ = len(old) if at is None else at
        (d / name).write_text("".join(old[:at_] + [ln + "\n" for ln in lines] + old[at_:]))
    return edit


def repeat_last_line(name: str):
    """File ``name`` with its last line appended once more."""
    def edit(d: Path) -> None:
        text = (d / name).read_text()
        (d / name).write_text(text + text.splitlines(True)[-1])
    return edit


def cells(name: str, values: dict):
    """CSV file ``name`` with ``{(line, column): value}`` set, the header
    being line 0; a callable value maps the cell it replaces."""
    def edit(d: Path) -> None:
        lines = [ln.split(",") for ln in (d / name).read_text().splitlines()]
        for (line, column), value in values.items():
            old = lines[line][column]
            lines[line][column] = value(old) if callable(value) else value
        (d / name).write_text("".join(",".join(ln) + "\n" for ln in lines))
    return edit


def turns(bend_s: float = 0.0):
    """A turns.csv named by scenario.cfg: 60 s on every turn back to the
    edge's tail and ``bend_s`` on every other change of heading."""
    def edit(d: Path) -> None:
        pens = uturn_and_bend_penalties(load_nodes(str(d / "nodes.csv")),
                                        load_edges(str(d / "edges.csv")), bend_s=bend_s)
        (d / "turns.csv").write_text("from_edge_index,to_edge_index,penalty_s\n" + "".join(
            f"{a},{b},{pen}\n" for a, b, pen in turn_rows(pens) if pen))
        config("network.turns=turns.csv")(d)
    return edit


def merge_first_two_stops(d: Path) -> None:
    """stops.csv with its second stop folded into its first: one row with
    both loads and both demand lists."""
    header, first, second, *rest = (d / "stops.csv").read_text().splitlines(True)
    a, b = first.rstrip("\n").split(","), second.rstrip("\n").split(",")
    merged = [a[0], a[1], repr(float(a[2]) + float(b[2])), a[3], f"{a[4]};{b[4]}"]
    (d / "stops.csv").write_text(header + ",".join(merged) + "\n" + "".join(rest))


@dataclass(frozen=True)
class Case:
    """One command-line case.

    ``run`` is a command or a tuple of them. In commands and in expected
    text, ``{dir}`` is the case directory, ``{cfg}`` its scenario.cfg and
    ``{out}`` ``{dir}/out``. ``stdout``, ``stderr`` and each ``files``
    entry (a path in ``{dir}``, a text) hold text, or a regular
    expression, that must appear there; ``absent`` text is on neither
    stream. A str or pattern in place of a tuple is a tuple of one.
    """
    id: str
    base: str | None  # a demo directory or a SYNTHETIC city; None: empty
    edit: object      # an edit, a tuple of edits, or None
    run: str | tuple[str, ...]
    code: int
    stdout: str | re.Pattern | tuple = ()
    stderr: str | re.Pattern | tuple = ()
    files: tuple[tuple[str, str | re.Pattern], ...] = ()
    absent: str | tuple = ()


PLAN = "plan {cfg} --out {out}"
VERIFY = "verify {cfg} {dir}/stops.csv"
SYNTH = "synth {dir}/city.cfg --out {out}"
COMPARE = "compare {dir}/existing.cfg {dir}/proposed.cfg"
COVERED = "coverage OK: every demand point is served"


def plan_and_verify(objective: str) -> tuple[str, str]:
    return (f"plan {{cfg}} --objective {objective} --out {{out}}",
            "verify {cfg} {out}/stops.csv")


def factors(table: str, *lines: str):
    """A factors.csv of ``table``'s rows, named by scenario.cfg with ``lines``."""
    return (write("factors.csv", "class,quantity,per_km,per_stop\n" + table),
            config("factors=factors.csv", *lines))


CASES = [
    Case("test_plan_demo_succeeds", "four_stops", None, PLAN, 0,
         stdout="planned 4 stops",
         files=(("out/stops.csv", "stop_id,node_id"), ("out/plan.csv", "truck_id,"),
                ("out/routes.geojson", '"features"'), ("out/summary.cfg", "n_stops=4\n"))),
    Case("test_plan_reports_comparison_when_baseline_present", "city3x3", None,
         "plan {dir}/scenario_with_baseline.cfg --out {out} --format table", 0,
         stdout=("% Improvement", "26.5%")),
    # a comparison of scenarios whose names hold commas is still a 4-column CSV
    Case("test_plan_comparison_of_names_with_commas_is_a_4_column_csv", "city3x3",
         config("existing.name=dumpster,collection", "proposed.name=door,to,door",
                name="scenario_with_baseline.cfg"),
         "plan {dir}/scenario_with_baseline.cfg --out {out}", 0,
         files=(("out/comparison.csv", re.compile(
             r'\AMetric,"dumpster,collection","door,to,door",[^,"\n]+\n'
             r'(?:[^,"\n]+(?:,[^,"\n]+){3}\n){12}\Z')),)),
    # the base's own plan, made when the base is built
    *(Case(f"test_plan_and_verify[{base}]", base, None, VERIFY, 0, stdout=COVERED)
      for base in SYNTHETIC),
    # by distance the shift checks read a time table that is not the cost table
    Case("test_plan_and_verify[city9-distance]", "city9", None,
         plan_and_verify("distance"), 0, stdout=COVERED),
    # a 60 s penalty on every U-turn, and 10 s on every bend: by time the
    # arriving-edge search, by distance the node search whose times
    # include the turns
    *(Case(f"test_plan_and_verify[{base}-{kind}-{objective}]", base, turns(bend_s),
           plan_and_verify(objective), 0, stdout=COVERED)
      for base, kind, bend_s in (("city3x3", "uturns", 0.0), ("city16", "uturns", 0.0),
                                 ("city16", "bends", 10.0))
      for objective in ("time", "distance")),
    Case("test_plan_missing_input_file_exits_2", None,
         write("scenario.cfg", "network.nodes=nope.csv\nnetwork.edges=nope.csv\n"
               "buildings=nope.csv\ndepot.x_m=0\ndepot.y_m=0\n"), PLAN, 2),
    # an empty path joins to the config's directory, which is no file
    Case("test_plan_empty_turns_key_exits_2_naming_it", "four_stops",
         config("network.turns="), PLAN, 2,
         stderr="key 'network.turns': not a file: {dir}" + os.sep),
    Case("test_verify_empty_turns_key_exits_2_naming_it", "city16",
         config("network.turns="), VERIFY, 2,
         stderr="key 'network.turns': not a file: {dir}" + os.sep),
    Case("test_plan_unknown_config_key_exits_2", "four_stops",
         config("fleet.crew_size=3"), PLAN, 2, stderr="fleet.crew_size"),
    Case("test_plan_config_key_that_would_do_nothing_exits_2[truck_class]", "city3x3",
         config("truck_class=nonexistent"), PLAN, 2,
         stderr="key 'truck_class': needs a 'factors' file"),
    Case("test_plan_config_key_that_would_do_nothing_exits_2[proposed]", "city3x3",
         config(drop=("existing.",), name="scenario_with_baseline.cfg"),
         "plan {dir}/scenario_with_baseline.cfg --out {out}", 2,
         stderr="keys 'proposed.*': need an 'existing.*' block"),
    Case("test_plan_far_depot_exits_4", "city3x3",
         config("depot.x_m=90000", "depot.y_m=90000"), PLAN, 4, stderr="network/snap"),
    Case("test_verify_depot_that_does_not_snap_exits_4", "four_stops",
         config("depot.x_m=99000"), VERIFY, 4,
         stderr="stage network/snap: ", absent="coverage OK"),
    Case("test_plan_unwritable_out_dir_exits_4", "four_stops",
         write("taken", "a file where the output directory should go\n"),
         "plan {cfg} --out {dir}/taken/out", 4,
         stderr=("stage emit", "cannot write the outputs")),
    Case("test_synth_unwritable_out_dir_exits_4", None,
         (write("city.cfg", "seed=5\ngrid_x=2\ngrid_y=2\n"),
          write("taken", "a file where the city directory should go\n")),
         "synth {dir}/city.cfg --out {dir}/taken/city", 4, stderr="cannot write the city"),
    *(Case(f"test_plan_bad_building_row_exits_4[{row}-{message}]", "four_stops",
           rows("buildings.csv", row), PLAN, 4,
           stderr=("demand/aggregate", "{dir}/buildings.csv: " + message))
      for row, message in (("999,nan,0.0,8", "building 999 has non-finite coordinates"),
                           ("3,0.0,0.0,8", "building id 3 appears more than once"))),
    # a building 100 km east of the grid snaps to no node within the
    # radius: infeasible, and the one-pass snap names it
    Case("test_plan_building_that_does_not_snap_exits_3", "city16",
         rows("buildings.csv", "999999,103200.0,1600.0,4"), PLAN, 3,
         stderr="demand 999999 does not snap"),
    Case("test_plan_infeasible_shift_exits_3", "four_stops",
         config("fleet.shift_s=2000"), PLAN, 3, stderr="vrp/solve"),
    Case("test_synth_then_plan_round_trip", None,
         (write("city.cfg", "seed=5\ngrid_x=2\ngrid_y=2\nbuildings_per_block=3\n"),
          write("scenario.cfg", "network.nodes=city/nodes.csv\nnetwork.edges=city/edges.csv\n"
                "buildings=city/buildings.csv\ndepot.x_m=0\ndepot.y_m=0\n")),
         ("synth {dir}/city.cfg --out {dir}/city", PLAN), 0, stdout="planned "),
    Case("test_compare_unknown_summary_key_exits_2", "summaries",
         rows("proposed.cfg", "total_kmm=9"), COMPARE, 2, stderr="total_kmm"),
    *(Case(f"test_compare_non_finite_summary_value_exits_2[{value}]", "summaries",
           config(f"total_km={value}", name="proposed.cfg"), COMPARE, 2,
           stderr="'total_km': not a finite number", absent="%")
      for value in ("nan", "inf", "-inf")),
    Case("test_compare_inconsistent_summary_exits_2", "summaries",
         config("total_km=-3347", name="proposed.cfg"), COMPARE, 2,
         stderr="door-to-door: total_km is negative"),
    Case("test_count_beyond_the_float_range_exits_2", "summaries",
         config("n_trucks=1" + "0" * 400, name="proposed.cfg"), COMPARE, 2,
         stderr="'n_trucks': not a finite number"),
    Case("test_compare_zero_baseline_exits_2", "summaries",
         config("avg_route_h=0", "total_time_h=0", name="existing.cfg"), COMPARE, 2,
         stderr="baseline must be positive, got 0.0"),
    *(Case(f"test_compare_summary_with_totals_but_no_trucks_exits_2[values{i}]",
           "summaries", config("n_trucks=0", *lines, name="existing.cfg"), COMPARE, 2,
           stderr="dumpster-collection: no trucks, but total_km")
      for i, lines in enumerate((("total_km=1756", "avg_route_km=0", "total_time_h=0",
                                  "avg_route_h=0"),
                                 ("total_km=0", "avg_route_km=0")))),
    *(Case(f"test_plan_non_finite_config_number_exits_2[{key}]", "four_stops",
           config(f"{key}=nan"), PLAN, 2, stderr=f"{key!r}: not a finite number")
      for key in ("coverage.radius_m", "fleet.shift_s", "depot.x_m")),
    *(Case(f"test_plan_config_number_of_wrong_sign_exits_2[{id_}]", base,
           config(f"{key}={value}"), PLAN, 2, stderr=message, absent="stage")
      for id_, base, key, value, message in (
          ("rate-negative", "four_stops", "generation_rate_kg_unit_day", "-1",
           "'generation_rate_kg_unit_day': must be positive"),
          ("rate-zero", "four_stops", "generation_rate_kg_unit_day", "0",
           "'generation_rate_kg_unit_day': must be positive"),
          ("service-time-negative", "four_stops", "coverage.service_time_s", "-500",
           "coverage.service_time_s must be finite and non-negative"),
          ("max-snap-negative", "four_stops", "depot.max_snap_m", "-5",
           "'depot.max_snap_m': must be non-negative"),
          ("city16-rate-negative", "city16", "generation_rate_kg_unit_day", "-1",
           "'generation_rate_kg_unit_day': must be positive"),
          ("city16-max-snap-negative", "city16", "depot.max_snap_m", "-5",
           "'depot.max_snap_m': must be non-negative"))),
    # a candidate node listed twice would be searched twice
    Case("test_plan_repeated_candidate_node_exits_2", "city16",
         config("coverage.candidate_nodes=0;5;5;10"), PLAN, 2,
         stderr="coverage.candidate_nodes lists node 5 twice"),
    Case("test_plan_unknown_distance_mode_exits_2", "four_stops",
         config("coverage.distance_mode=manhattan"), PLAN, 2,
         stderr="distance_mode must be 'network' or 'euclidean', got 'manhattan'"),
    Case("test_plan_header_only_factors_file_exits_4", "four_stops", factors(""), PLAN, 4,
         stderr="{dir}/factors.csv: no factor rows"),
    Case("test_plan_header_only_factors_file_of_a_synthetic_city_exits_4", "city16",
         factors(""), PLAN, 4, stderr="{dir}/factors.csv: no factor rows"),
    *(Case(f"test_plan_non_finite_impact_factor_exits_4[{value}]", "four_stops",
           factors(f"4t,energy_mj,62.02,0.5\n4t,co2_g,19.5,{value}\n"), PLAN, 4,
           stderr="{dir}/factors.csv: class '4t' co2_g: co2_g_per_stop must be finite")
      for value in ("nan", "inf")),
    Case("test_plan_non_finite_impact_factor_exits_4[city16-nan]", "city16",
         factors("4t,energy_mj,nan,0.5\n"), PLAN, 4,
         stderr="{dir}/factors.csv: class '4t' energy_mj: energy_mj_per_km must be finite"),
    Case("test_plan_repeated_factor_row_exits_4", "city16",
         factors("4t,energy_mj,3.0,0.5\n4t,energy_mj,4.0,0.5\n"), PLAN, 4,
         stderr="{dir}/factors.csv: class '4t' energy_mj appears more than once"),
    Case("test_plan_truck_class_missing_from_the_factors_file_exits_2", "four_stops",
         factors("4t,energy_mj,62.02,0.5\n", "truck_class=9t"), PLAN, 2,
         stderr="truck_class '9t' not in factors file"),
    Case("test_plan_unknown_factor_quantity_exits_4_naming_the_file", "four_stops",
         factors("4t,energy_mj,62.02,0.5\n4t,pm10_g,1.0,0.5\n"), PLAN, 4,
         stderr="{dir}/factors.csv: unknown quantity 'pm10_g'"),
    Case("test_plan_edge_whose_travel_time_overflows_exits_4_naming_the_file",
         "four_stops", rows("edges.csv", "0,1,1e308,1", at=1), PLAN, 4,
         stderr="{dir}/edges.csv: edge 0 needs a finite positive travel time, got inf s"),
    # 1e308 m at 1 km/h: a time matrix would call the edge's head unreachable
    Case("test_plan_edge_of_1e308_m_at_1_kmh_exits_4_naming_the_file", "city3x3",
         cells("edges.csv", {(1, 2): "1e308", (1, 3): "1"}), PLAN, 4,
         stderr="{dir}/edges.csv: edge 0 needs a finite positive travel time"),
    Case("test_plan_repeated_node_exits_4_naming_the_file", "city16",
         repeat_last_line("nodes.csv"), PLAN, 4, stderr="{dir}/nodes.csv: duplicate node id"),
    Case("test_plan_repeated_turn_exits_4_naming_the_pair", "city16",
         (turns(), repeat_last_line("turns.csv")), PLAN, 4,
         stderr="{dir}/turns.csv: turn penalty 1087,1086 appears more than once"),
    # the first bad row in the file is the one reported: a turn between
    # edges that do not meet, before a row that does not parse
    Case("test_plan_first_bad_turn_row_is_the_one_reported", "city16",
         (turns(), write("turns.csv", "from_edge_index,to_edge_index,penalty_s\n"
                         "0,0,60\n1,x,60\n")), PLAN, 4,
         stderr="{dir}/turns.csv: turn penalty (0,0) joins non-adjacent edges"),
    # one field past the csv module's 131,072-character limit
    Case("test_verify_oversized_csv_field_exits_4_naming_the_file", "city16",
         rows("nodes.csv", "999999,0.0,0.0," + "9" * 140_000), VERIFY, 4,
         stderr=("{dir}/nodes.csv: line ", "field larger than field limit")),
    Case("test_verify_row_wider_than_its_header_exits_4_naming_the_line", "city16",
         rows("nodes.csv", "999999,0.0,0.0,junk"), VERIFY, 4,
         stderr="{dir}/nodes.csv: line 291: 4 fields, the header has 3"),
    *(Case(f"test_synth_negative_density_exits_2[{line}]", None,
           write("city.cfg", f"seed=5\n{line}\n"), SYNTH, 2,
           stderr="densities must be non-negative")
      for line in ("buildings_per_block=-1", "units_per_building=-8")),
    Case("test_synth_unknown_key_exits_2", None,
         write("city.cfg", "seed=5\ngrid_x=3\ngird_y=9\n"), SYNTH, 2, stderr="gird_y"),
    *(Case(f"test_synth_non_finite_spec_number_exits_2[{id_}]", None,
           write("city.cfg", f"seed={seed}\n{line}\n"), SYNTH, 2,
           stderr=f"key {line.split('=')[0]!r}: not a finite number")
      for id_, seed, line in (("block_m=nan", 5, "block_m=nan"),
                              ("speed_kmh=inf", 5, "speed_kmh=inf"),
                              ("block_m=-inf", 5, "block_m=-inf"),
                              ("seed=1-block_m=nan", 1, "block_m=nan"))),
    *(Case(f"test_synth_spec_beyond_the_ceiling_exits_2[{lines}-{sizes}]", None,
           write("city.cfg", f"seed=5\n{lines}"), SYNTH, 2,
           stderr=f"error: grid_x, grid_y and buildings_per_block give {sizes}")
      for lines, sizes in (("grid_x=1000000000\ngrid_y=1000000000\n",
                            "1000000002000000001 nodes and 7000000000000000000 buildings"),
                           ("grid_x=100\ngrid_y=100\nbuildings_per_block=1000\n",
                            "10201 nodes and 10000000 buildings"))),
    *(Case(f"test_verify_bad_argument_exits_2[option{i}]", "four_stops",
           config(f"{key}={value}"), VERIFY, 2, stderr=key, absent="UNCOVERED")
      for i, (key, value) in enumerate((
          ("coverage.radius_m", "-5"), ("coverage.radius_m", "nan"),
          ("coverage.radius_m", "inf"), ("generation_rate_kg_unit_day", "-1"),
          ("generation_rate_kg_unit_day", "nan")))),
    Case("test_verify_bad_argument_exits_2[city16-radius]", "city16",
         config("coverage.radius_m=-5"), VERIFY, 2,
         stderr="coverage.radius_m must be finite and positive", absent="UNCOVERED"),
    # demand 25 (19.92 kg) moved from stop 0 to stop 1, each stop's
    # assigned_kg still its demands' mass: stop 1 weighs 537.84 kg
    Case("test_verify_shared_stop_over_the_load_cap_exits_4", "four_stops",
         cells("stops.csv", {(1, 2): lambda kg: repr(float(kg) - 19.92),
                             (2, 2): lambda kg: repr(float(kg) + 19.92),
                             (1, 4): lambda ids: ids.removesuffix(";25"),
                             (2, 4): lambda ids: "25;" + ids}), VERIFY, 4,
         stderr="stop 1 lists 27 demands and is assigned 537.84 kg, over the "
                "520.0 kg max_stop_load_kg", absent="coverage OK"),
    Case("test_verify_merged_stops_over_the_load_cap_exits_4", "city9",
         merge_first_two_stops, VERIFY, 4,
         stderr=re.compile(r"stop 0 lists [0-9]* demands and is assigned [0-9.]* kg, "
                           r"over the 520\.0 kg max_stop_load_kg"), absent="coverage OK"),
    *(Case(f"test_verify_repeated_stop_or_demand_exits_4[{id_}]", "four_stops",
           rows("stops.csv", extra), VERIFY, 4,
           stderr="{dir}/stops.csv: " + message, absent="coverage OK")
      for id_, extra, message in (
          ("stop", "3,4,517.92,1800.0,78;79", "stop 3 is listed twice"),
          ("demand", "4,4,517.92,1800.0,103",
           "demand 103 is listed under stop 3 and again under stop 4"),
          ("demand_in_one_stop", "4,4,517.92,1800.0,104;104",
           "demand 104 is listed under stop 4 and again under stop 4"))),
    Case("test_verify_repeated_stop_or_demand_exits_4[city16-stop]", "city16",
         repeat_last_line("stops.csv"), VERIFY, 4,
         stderr=("{dir}/stops.csv: stop ", " is listed twice"), absent="coverage OK"),
    *(Case(f"test_verify_bad_stop_number_exits_4[{column}-{value}]", "four_stops",
           cells("stops.csv", {(2, column): value}), VERIFY, 4,
           stderr=f"{{dir}}/stops.csv: stop 1 {('assigned_kg', 'service_time_s')[column - 2]}"
                  f" {float(value)} is not a finite non-negative number",
           absent="coverage OK")
      for column, value in ((2, "nan"), (2, "-50.0"), (2, "inf"), (3, "nan"), (3, "-1.0"))),
    Case("test_verify_bad_stop_number_exits_4[city16-2-nan]", "city16",
         cells("stops.csv", {(1, 2): "nan"}), VERIFY, 4,
         stderr="{dir}/stops.csv: stop 0 assigned_kg nan is not a finite non-negative number",
         absent="coverage OK"),
    *(Case(f"test_verify_stop_inconsistent_with_the_demands_exits_4[{id_}]", base,
           cells("stops.csv", {(row, column): value}), VERIFY, 4, stderr=messages,
           absent="coverage OK")
      for id_, base, row, column, value, messages in (
          ("unknown_demand", "four_stops", 4, 4, lambda ids: ids + ";999",
           "stop 3 lists demand 999, which is not a demand point"),
          ("assigned_kg", "four_stops", 1, 2, "100.0",
           ("stop 0 has assigned_kg 100.0 but its demands weigh 517.92",
            "generation_rate_kg_unit_day")),
          ("city16-unknown_demand", "city16", 1, 4, lambda ids: ids + ";999999",
           "stop 0 lists demand 999999, which is not a demand point"),
          ("city16-assigned_kg", "city16", 1, 2, lambda kg: repr(float(kg) + 100),
           re.compile(r"stop 0 has assigned_kg [0-9.]+ but its demands weigh ")))),
]


def _texts(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _holds(text: str, want, names: dict) -> bool:
    if isinstance(want, re.Pattern):
        return want.search(text) is not None
    return want.format(**names) in text


def run_case(case: Case, inputs: Inputs, tmp_path: Path) -> None:
    d = inputs.copy(case.base, tmp_path / "case", *_texts(case.edit or ()))
    names = {"dir": str(d), "cfg": str(d / "scenario.cfg"), "out": str(d / "out")}
    runner = CliRunner()
    commands = _texts(case.run)
    for i, command in enumerate(commands):
        result = runner.invoke(main, [arg.format(**names) for arg in command.split()])
        if i < len(commands) - 1:
            assert result.exit_code == 0, (command, result.output)
    assert result.exit_code == case.code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    if case.code:
        assert not os.path.exists(names["out"])
    for stream in ("stdout", "stderr"):
        for want in _texts(getattr(case, stream)):
            assert _holds(getattr(result, stream), want, names), (stream, want, result.output)
    for name, want in case.files:
        assert _holds((d / name).read_text(encoding="utf-8"), want, names), (name, want)
    for text in _texts(case.absent):
        assert text not in result.output


def _define(name: str, cases: list[Case]) -> None:
    """Test ``name`` runs ``cases``: one without parameters, or each under
    the id it gives in brackets."""
    assert name not in globals(), f"the cases of {name} are not adjacent"
    if [c.id for c in cases] == [name]:
        def test(inputs, tmp_path):
            run_case(cases[0], inputs, tmp_path)
    else:
        @pytest.mark.parametrize("case", cases,
                                 ids=[c.id[len(name) + 1:-1] for c in cases])
        def test(case, inputs, tmp_path):
            run_case(case, inputs, tmp_path)
    test.__name__ = test.__qualname__ = name
    globals()[name] = test


for _name, _cases in groupby(CASES, key=lambda c: c.id.partition("[")[0]):
    _define(_name, list(_cases))


def test_plan_unclassified_stage_failure_exits_5(tmp_path, monkeypatch):
    # a cause of no known kind is an internal error, not a data error
    def broken(*args, **kwargs):
        raise RuntimeError("solver state corrupted")

    monkeypatch.setattr(vrp, "solve_vrp", broken)
    result = CliRunner().invoke(
        main, ["plan", str(DEMO / "four_stops" / "scenario.cfg"), "--out", str(tmp_path)])
    assert result.exit_code == 5, result.output
    assert "stage vrp/solve" in result.output
    assert "solver state corrupted" in result.output


def test_plan_that_drops_a_stop_fails_its_audit_with_exit_5(tmp_path, monkeypatch):
    solve = vrp.solve_vrp

    def dropping(matrix, stops, *args, **kwargs):
        plan = solve(matrix, stops[1:], *args, **kwargs)
        plan.stops = {s.id: s for s in stops}
        return plan

    monkeypatch.setattr(vrp, "solve_vrp", dropping)
    cfg = load_scenario_config(str(DEMO / "four_stops" / "scenario.cfg"))
    with pytest.raises(StageError) as info:
        run_pipeline(cfg, str(tmp_path / "lib"))
    assert info.value.stage == "vrp/solve"
    result = CliRunner().invoke(
        main, ["plan", str(DEMO / "four_stops" / "scenario.cfg"), "--out", str(tmp_path)])
    assert result.exit_code == 5, result.output
    assert "stage vrp/solve: stops [0] are not planned" in result.output
    assert not (tmp_path / "plan.csv").exists()


def drop_a_demand(stops, demands):
    """Stop 0 without its first demand, and without that demand's mass."""
    gone = stops[0].covered_demand_ids.pop(0)
    stops[0].assigned_demand_kg -= next(d.waste_kg_day for d in demands
                                        if d.id == gone)


def list_a_demand_twice(stops, demands):
    """Stop 1 also lists the first demand of stop 0, with its mass."""
    twice = stops[0].covered_demand_ids[0]
    stops[1].covered_demand_ids.append(twice)
    stops[1].assigned_demand_kg += next(d.waste_kg_day for d in demands
                                        if d.id == twice)


@pytest.mark.parametrize("corrupt, message", [
    (drop_a_demand, "uncovered demands remain: ["),
    (list_a_demand_twice, "demand 0 is listed under stop 0 and again under stop 1"),
], ids=["dropped", "listed_twice"])
def test_stops_that_drop_or_repeat_a_demand_fail_the_coverage_guard_with_exit_5(
        tmp_path, monkeypatch, corrupt, message):
    place = cov.place_stops

    def corrupted(net, demands, cfg):
        stops = place(net, demands, cfg)
        corrupt(stops, demands)
        return stops

    monkeypatch.setattr(cov, "place_stops", corrupted)
    result = CliRunner().invoke(
        main, ["plan", str(DEMO / "four_stops" / "scenario.cfg"), "--out", str(tmp_path)])
    assert result.exit_code == 5, result.output
    assert f"stage coverage/place_stops: {message}" in result.output
    assert not (tmp_path / "stops.csv").exists()


def test_compare_prints_reference_percentages():
    summaries = [str(DEMO / "summaries" / f"{name}.cfg") for name in ("existing", "proposed")]
    result = CliRunner().invoke(main, ["compare", *summaries])
    assert result.exit_code == 0, result.output
    assert "26.5%" in result.output
    assert "-90.6%" in result.output
    text = CliRunner().invoke(main, ["compare", *summaries, "--format", "text"])
    assert "90.6% worse" in text.output


@pytest.mark.parametrize("config", ["scenario.cfg", "scenario_with_baseline.cfg"])
def test_plan_writes_utf8_outputs_under_an_ascii_locale(tmp_path, config):
    # the config reader takes UTF-8 whatever the locale, so the writers must
    # too: under the C locale with UTF-8 mode off, the default is ASCII
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(DEMO / "city3x3" / name, tmp_path)
    text = (DEMO / "city3x3" / config).read_text(encoding="utf-8").replace(
        "existing.name=dumpster-collection", "existing.name=حاويات")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "scenario_name=العاشر\n", encoding="utf-8")
    out = tmp_path / "out"
    ran = run_under_ascii_locale("-m", "mswplan.cli", "plan", str(cfg), "--out", str(out))
    assert ran.returncode == 0, ran.stderr
    assert load_summary(str(out / "summary.cfg")).name == "العاشر"
    if config == "scenario_with_baseline.cfg":
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh))[1:3] == ["حاويات", "door-to-door"]
        text = (out / "comparison.txt").read_text(encoding="utf-8")
        assert text.startswith("Scenario comparison: حاويات vs door-to-door\n")


def test_synth_seed_only_spec_uses_the_spec_defaults(tmp_path):
    from mswplan.synth import SyntheticCitySpec, write_city

    spec = tmp_path / "city.cfg"
    spec.write_text("seed=5\n")
    made = CliRunner().invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "cli")])
    assert made.exit_code == 0, made.output
    write_city(SyntheticCitySpec(seed=5), str(tmp_path / "lib"))
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        got, want = tmp_path / "cli" / name, tmp_path / "lib" / name
        assert got.read_bytes() == want.read_bytes(), name


def test_verify_accepts_planned_stops_and_rejects_pruned(tmp_path):
    runner = CliRunner()
    cfg = str(DEMO / "city3x3" / "scenario.cfg")
    out = tmp_path / "out"
    ran = runner.invoke(main, ["plan", cfg, "--out", str(out)])
    assert ran.exit_code == 0, ran.output
    ok = runner.invoke(main, ["verify", cfg, str(out / "stops.csv")])
    assert ok.exit_code == 0, ok.output
    assert "coverage OK" in ok.output

    # drop every stop but the first: coverage must fail with exit 3
    lines = (out / "stops.csv").read_text().splitlines()
    (tmp_path / "pruned.csv").write_text("\n".join(lines[:2]) + "\n")
    bad = runner.invoke(main, ["verify", cfg, str(tmp_path / "pruned.csv")])
    assert bad.exit_code == 3
    assert "UNCOVERED" in bad.output


def test_verify_reports_the_overflow_stops_of_a_plan(inputs, tmp_path):
    # at a 10 kg cap each 19.92 kg demand gets an overflow stop of its own
    d = inputs.copy("four_stops", tmp_path / "case", config("coverage.max_stop_load_kg=10"))
    runner = CliRunner()
    ran = runner.invoke(main, ["plan", str(d / "scenario.cfg"), "--out", str(d / "out")])
    assert ran.exit_code == 0, ran.output
    assert "planned 104 stops" in ran.output
    ok = runner.invoke(main, ["verify", str(d / "scenario.cfg"), str(d / "out" / "stops.csv")])
    assert ok.exit_code == 0, ok.output
    assert f"overflow stops: {list(range(104))}\n" in ok.output
    assert "coverage OK" in ok.output


def test_plan_objective_option_plans_as_the_config_key_does(tmp_path, monkeypatch):
    city = tmp_path / "city"
    shutil.copytree(DEMO / "city3x3", city)
    text = (city / "scenario.cfg").read_text()
    assert "objective=time\n" in text
    (city / "distance.cfg").write_text(
        text.replace("objective=time\n", "objective=distance\n"))
    objectives = []

    def recording(cfg, out_dir):
        objectives.append(cfg.objective)
        return run_pipeline(cfg, out_dir)

    monkeypatch.setattr("mswplan.cli.run_pipeline", recording)
    runner = CliRunner()
    for config_, option, out in (("scenario.cfg", ["--objective", "distance"], "option"),
                                 ("distance.cfg", [], "key")):
        r = runner.invoke(
            main, ["plan", str(city / config_), *option, "--out", str(tmp_path / out)])
        assert r.exit_code == 0, r.output
    assert objectives == ["distance", "distance"]
    assert (tmp_path / "option" / "plan.csv").read_bytes() == \
        (tmp_path / "key" / "plan.csv").read_bytes()


def test_seed_override_changes_nothing_on_fixed_instance(tmp_path):
    # identical configs and seeds give identical files even via the CLI
    runner = CliRunner()
    for sub in ("a", "b"):
        r = runner.invoke(
            main,
            ["plan", str(DEMO / "city3x3" / "scenario.cfg"),
             "--out", str(tmp_path / sub), "--seed", "11"],
        )
        assert r.exit_code == 0, r.output
    for name in ("stops.csv", "plan.csv", "routes.geojson", "summary.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_verify_audits_at_the_radius_of_its_config(inputs, tmp_path):
    # planned at 600 m, the stops serve demands beyond the demo's 300 m
    city = inputs.copy("city3x3", tmp_path / "city", rows("scenario.cfg", "coverage.radius_m=600"))
    cfg = str(city / "scenario.cfg")
    runner = CliRunner()
    out = tmp_path / "out"
    ran = runner.invoke(main, ["plan", cfg, "--out", str(out)])
    assert ran.exit_code == 0, ran.output
    stops = str(out / "stops.csv")
    ok = runner.invoke(main, ["verify", cfg, stops])
    assert ok.exit_code == 0, ok.output
    assert "coverage OK" in ok.output
    narrow = runner.invoke(main, ["verify", str(DEMO / "city3x3" / "scenario.cfg"), stops])
    assert narrow.exit_code == 3, narrow.output
    assert "UNCOVERED" in narrow.output


def test_non_utf8_summary_or_table_is_a_typed_error(inputs, tmp_path):
    summary = tmp_path / "summary.cfg"
    summary.write_bytes((DEMO / "summaries" / "proposed.cfg").read_bytes() + b"# \xff\n")
    result = CliRunner().invoke(
        main, ["compare", str(DEMO / "summaries" / "existing.cfg"), str(summary)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"cannot read {summary}: 'utf-8' codec" in result.output

    d = inputs.copy("four_stops", tmp_path / "case")
    with open(d / "buildings.csv", "ab") as fh:
        fh.write(b"999,0.0,0.0,8\xff\n")
    result = CliRunner().invoke(main, ["verify", str(d / "scenario.cfg"), str(d / "stops.csv")])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"cannot read {d / 'buildings.csv'}: 'utf-8' codec" in result.output


def test_oversized_csv_field_exits_4_naming_the_file(inputs, tmp_path):
    # one field past the csv module's limit
    city = inputs.copy("city3x3", tmp_path / "city",
                       rows("nodes.csv", "99,0.0,0.0," + "9" * 140_000))
    for args in (["plan", str(city / "scenario.cfg"), "--out", str(tmp_path / "out")],
                 ["verify", str(city / "scenario.cfg"), str(GOLDEN / "stops.csv")]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{city / 'nodes.csv'}: line " in result.output
        assert "field larger than field limit" in result.output
