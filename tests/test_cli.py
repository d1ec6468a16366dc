import csv
import os
import shutil

import pytest
from click.testing import CliRunner

from helpers import run_under_ascii_locale
from mswplan import coverage as cov
from mswplan import vrp
from mswplan.cli import main
from mswplan.errors import StageError
from mswplan.pipeline import load_scenario_config, load_summary, run_pipeline

DEMO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "demo"))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "four_stops")


def demo_path(*parts: str) -> str:
    return os.path.join(DEMO, *parts)


def test_plan_demo_succeeds(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["plan", demo_path("four_stops", "scenario.cfg"),
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "planned 4 stops" in result.output
    for name in ("stops.csv", "plan.csv", "routes.geojson", "summary.cfg"):
        assert (tmp_path / name).exists()


def test_plan_reports_comparison_when_baseline_present(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["plan", demo_path("city3x3", "scenario_with_baseline.cfg"),
         "--out", str(tmp_path), "--format", "table"],
    )
    assert result.exit_code == 0, result.output
    assert "% Improvement" in result.output
    assert "26.5%" in result.output


def test_plan_missing_input_file_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("network.nodes=nope.csv\nnetwork.edges=nope.csv\n"
                   "buildings=nope.csv\ndepot.x_m=0\ndepot.y_m=0\n")
    result = CliRunner().invoke(main, ["plan", str(cfg)])
    assert result.exit_code == 2


def test_plan_empty_turns_key_exits_2_naming_it(tmp_path):
    # an empty path joins to the config's directory, which is no file
    cfg = four_stops_with(tmp_path, "network.turns=")
    result = CliRunner().invoke(main, ["plan", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"key 'network.turns': not a file: {tmp_path}{os.sep}" in result.output
    assert not (tmp_path / "out").exists()


def test_plan_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(
        f"network.nodes={demo_path('four_stops', 'nodes.csv')}\n"
        f"network.edges={demo_path('four_stops', 'edges.csv')}\n"
        f"buildings={demo_path('four_stops', 'buildings.csv')}\n"
        "depot.x_m=0\ndepot.y_m=-2000\nfleet.crew_size=3\n"
    )
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "fleet.crew_size" in result.output


@pytest.mark.parametrize("config, edit, message", [
    ("scenario.cfg", lambda lines: lines + ["truck_class=nonexistent"],
     "key 'truck_class': needs a 'factors' file"),
    ("scenario_with_baseline.cfg",
     lambda lines: [ln for ln in lines if not ln.startswith("existing.")],
     "keys 'proposed.*': need an 'existing.*' block"),
], ids=["truck_class", "proposed"])
def test_plan_config_key_that_would_do_nothing_exits_2(tmp_path, config, edit,
                                                       message):
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("city3x3", name), tmp_path / name)
    with open(demo_path("city3x3", config)) as fh:
        lines = edit(fh.read().splitlines())
    cfg = tmp_path / config
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_plan_far_depot_exits_4(tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        f"network.nodes={demo_path('city3x3', 'nodes.csv')}\n"
        f"network.edges={demo_path('city3x3', 'edges.csv')}\n"
        f"buildings={demo_path('city3x3', 'buildings.csv')}\n"
        "depot.x_m=90000\ndepot.y_m=90000\n"
    )
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 4
    assert "network/snap" in result.output


def test_plan_unclassified_stage_failure_exits_5(tmp_path, monkeypatch):
    # a cause of no known kind is an internal error, not a data error
    def broken(*args, **kwargs):
        raise RuntimeError("solver state corrupted")

    monkeypatch.setattr(vrp, "solve_vrp", broken)
    result = CliRunner().invoke(
        main, ["plan", demo_path("four_stops", "scenario.cfg"), "--out", str(tmp_path)])
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
    cfg = load_scenario_config(demo_path("four_stops", "scenario.cfg"))
    with pytest.raises(StageError) as info:
        run_pipeline(cfg, str(tmp_path / "lib"))
    assert info.value.stage == "vrp/solve"
    result = CliRunner().invoke(
        main, ["plan", demo_path("four_stops", "scenario.cfg"), "--out", str(tmp_path)])
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
        main, ["plan", demo_path("four_stops", "scenario.cfg"), "--out", str(tmp_path)])
    assert result.exit_code == 5, result.output
    assert f"stage coverage/place_stops: {message}" in result.output
    assert not (tmp_path / "stops.csv").exists()


def test_plan_unwritable_out_dir_exits_4(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("a file where the output directory should go\n")
    result = CliRunner().invoke(
        main, ["plan", demo_path("four_stops", "scenario.cfg"),
               "--out", str(blocker / "out")])
    assert result.exit_code == 4, result.output
    assert "stage emit" in result.output
    assert "cannot write the outputs" in result.output


def test_synth_unwritable_out_dir_exits_4(tmp_path):
    spec = tmp_path / "city.cfg"
    spec.write_text("seed=5\ngrid_x=2\ngrid_y=2\n")
    blocker = tmp_path / "taken"
    blocker.write_text("a file where the city directory should go\n")
    result = CliRunner().invoke(main, ["synth", str(spec), "--out",
                                       str(blocker / "city")])
    assert result.exit_code == 4, result.output
    assert "cannot write the city" in result.output


@pytest.mark.parametrize("bad_row, message", [
    ("999,nan,0.0,8", "building 999 has non-finite coordinates"),
    ("3,0.0,0.0,8", "building id 3 appears more than once"),
])
def test_plan_bad_building_row_exits_4(tmp_path, bad_row, message):
    with open(demo_path("four_stops", "buildings.csv")) as fh:
        rows = fh.read()
    buildings = tmp_path / "buildings.csv"
    buildings.write_text(rows + bad_row + "\n")
    cfg = tmp_path / "bad_building.cfg"
    cfg.write_text(
        f"network.nodes={demo_path('four_stops', 'nodes.csv')}\n"
        f"network.edges={demo_path('four_stops', 'edges.csv')}\n"
        f"buildings={buildings}\n"
        "depot.x_m=0\ndepot.y_m=-2000\n"
    )
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 4
    assert "demand/aggregate" in result.output
    assert f"{buildings}: {message}" in result.output


def test_plan_infeasible_shift_exits_3(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        f"network.nodes={demo_path('four_stops', 'nodes.csv')}\n"
        f"network.edges={demo_path('four_stops', 'edges.csv')}\n"
        f"buildings={demo_path('four_stops', 'buildings.csv')}\n"
        "depot.x_m=0\ndepot.y_m=-2000\nfleet.shift_s=2000\n"
    )
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "vrp/solve" in result.output


def test_compare_prints_reference_percentages():
    result = CliRunner().invoke(
        main,
        ["compare", demo_path("summaries", "existing.cfg"),
         demo_path("summaries", "proposed.cfg")],
    )
    assert result.exit_code == 0, result.output
    assert "26.5%" in result.output
    assert "-90.6%" in result.output
    text = CliRunner().invoke(
        main,
        ["compare", demo_path("summaries", "existing.cfg"),
         demo_path("summaries", "proposed.cfg"), "--format", "text"],
    )
    assert "90.6% worse" in text.output


def test_synth_then_plan_round_trip(tmp_path):
    spec = tmp_path / "city.cfg"
    spec.write_text("seed=5\ngrid_x=2\ngrid_y=2\nbuildings_per_block=3\n")
    runner = CliRunner()
    made = runner.invoke(main, ["synth", str(spec), "--out", str(tmp_path / "city")])
    assert made.exit_code == 0, made.output
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "network.nodes=city/nodes.csv\nnetwork.edges=city/edges.csv\n"
        "buildings=city/buildings.csv\ndepot.x_m=0\ndepot.y_m=0\n"
    )
    ran = runner.invoke(main, ["plan", str(scenario), "--out", str(tmp_path / "out")])
    assert ran.exit_code == 0, ran.output


@pytest.mark.parametrize("config", ["scenario.cfg", "scenario_with_baseline.cfg"])
def test_plan_writes_utf8_outputs_under_an_ascii_locale(tmp_path, config):
    # the config reader takes UTF-8 whatever the locale, so the writers must
    # too: under the C locale with UTF-8 mode off, the default is ASCII
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("city3x3", name), tmp_path)
    with open(demo_path("city3x3", config), encoding="utf-8") as fh:
        text = fh.read().replace("existing.name=dumpster-collection",
                                 "existing.name=حاويات")
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


def test_compare_unknown_summary_key_exits_2(tmp_path):
    typo = tmp_path / "typo.cfg"
    with open(demo_path("summaries", "proposed.cfg")) as fh:
        typo.write_text(fh.read() + "total_kmm=9\n")
    result = CliRunner().invoke(
        main, ["compare", demo_path("summaries", "existing.cfg"), str(typo)])
    assert result.exit_code == 2
    assert "total_kmm" in result.output


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compare_non_finite_summary_value_exits_2(tmp_path, value):
    bad = tmp_path / "nan.cfg"
    with open(demo_path("summaries", "proposed.cfg")) as fh:
        bad.write_text(fh.read().replace("total_km=3347", f"total_km={value}"))
    result = CliRunner().invoke(
        main, ["compare", demo_path("summaries", "existing.cfg"), str(bad)])
    assert result.exit_code == 2
    assert "'total_km': not a finite number" in result.output
    assert "%" not in result.output


@pytest.mark.parametrize("key", ["coverage.radius_m", "fleet.shift_s",
                                 "depot.x_m"])
def test_plan_non_finite_config_number_exits_2(tmp_path, key):
    with open(demo_path("four_stops", "scenario.cfg")) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith(key + "=")]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join(lines + [f"{key}=nan"]) + "\n")
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("four_stops", name), tmp_path / name)
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"{key!r}: not a finite number" in result.output
    assert not (tmp_path / "stops.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("generation_rate_kg_unit_day", "-1",
     "'generation_rate_kg_unit_day': must be positive"),
    ("generation_rate_kg_unit_day", "0",
     "'generation_rate_kg_unit_day': must be positive"),
    ("coverage.service_time_s", "-500",
     "coverage.service_time_s must be finite and non-negative"),
    ("depot.max_snap_m", "-5", "'depot.max_snap_m': must be non-negative"),
], ids=["rate-negative", "rate-zero", "service-time-negative",
        "max-snap-negative"])
def test_plan_config_number_of_wrong_sign_exits_2(tmp_path, key, value, message):
    with open(demo_path("four_stops", "scenario.cfg")) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith(key + "=")]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("four_stops", name), tmp_path / name)
    result = CliRunner().invoke(main, ["plan", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "stage" not in result.output
    assert not (tmp_path / "stops.csv").exists()


def test_plan_header_only_factors_file_exits_4(tmp_path):
    for name in ("scenario.cfg", "nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("four_stops", name), tmp_path / name)
    factors = tmp_path / "factors.csv"
    factors.write_text("class,quantity,per_km,per_stop\n")
    with open(tmp_path / "scenario.cfg", "a") as fh:
        fh.write("factors=factors.csv\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["plan", str(tmp_path / "scenario.cfg"), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{factors}: no factor rows" in result.output
    assert not (out / "summary.cfg").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_plan_non_finite_impact_factor_exits_4(tmp_path, value):
    for name in ("scenario.cfg", "nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("four_stops", name), tmp_path / name)
    factors = tmp_path / "factors.csv"
    factors.write_text("class,quantity,per_km,per_stop\n"
                       "4t,energy_mj,62.02,0.5\n"
                       f"4t,co2_g,19.5,{value}\n")
    with open(tmp_path / "scenario.cfg", "a") as fh:
        fh.write("factors=factors.csv\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["plan", str(tmp_path / "scenario.cfg"), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{factors}: class '4t' co2_g: co2_g_per_stop must be finite" \
        in result.output
    assert not (out / "summary.cfg").exists()


def four_stops_with(tmp_path, *lines: str) -> str:
    """The four_stops scenario copied to ``tmp_path`` with ``lines`` in
    place of the lines of their keys, or appended."""
    for name in ("nodes.csv", "edges.csv", "buildings.csv"):
        shutil.copy(demo_path("four_stops", name), tmp_path / name)
    keys = {line.split("=")[0] for line in lines}
    with open(demo_path("four_stops", "scenario.cfg")) as fh:
        kept = [line for line in fh if line.split("=")[0] not in keys]
    (tmp_path / "scenario.cfg").write_text("".join(kept) + "".join(
        line + "\n" for line in lines))
    return str(tmp_path / "scenario.cfg")


def test_plan_edge_whose_travel_time_overflows_exits_4_naming_the_file(tmp_path):
    cfg = four_stops_with(tmp_path)
    edges = tmp_path / "edges.csv"
    header, _, *rows = edges.read_text().splitlines(keepends=True)
    edges.write_text(header + "0,1,1e308,1\n" + "".join(rows))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["plan", cfg, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{edges}: edge 0 needs a finite positive travel time, got inf s" \
        in result.output
    assert not (out / "stops.csv").exists()


def test_plan_unknown_distance_mode_exits_2(tmp_path):
    cfg = four_stops_with(tmp_path, "coverage.distance_mode=manhattan")
    result = CliRunner().invoke(main, ["plan", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "distance_mode must be 'network' or 'euclidean', got 'manhattan'" \
        in result.output
    assert not (tmp_path / "out" / "stops.csv").exists()


def test_plan_truck_class_missing_from_the_factors_file_exits_2(tmp_path):
    cfg = four_stops_with(tmp_path, "factors=factors.csv", "truck_class=9t")
    (tmp_path / "factors.csv").write_text("class,quantity,per_km,per_stop\n"
                                          "4t,energy_mj,62.02,0.5\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["plan", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "truck_class '9t' not in factors file" in result.output
    assert not (out / "summary.cfg").exists()


def test_plan_unknown_factor_quantity_exits_4_naming_the_file(tmp_path):
    cfg = four_stops_with(tmp_path, "factors=factors.csv")
    factors = tmp_path / "factors.csv"
    factors.write_text("class,quantity,per_km,per_stop\n"
                       "4t,energy_mj,62.02,0.5\n4t,pm10_g,1.0,0.5\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["plan", cfg, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{factors}: unknown quantity 'pm10_g'" in result.output
    assert not (out / "summary.cfg").exists()


@pytest.mark.parametrize("line", ["buildings_per_block=-1",
                                  "units_per_building=-8"])
def test_synth_negative_density_exits_2(tmp_path, line):
    spec = tmp_path / "city.cfg"
    spec.write_text(f"seed=5\n{line}\n")
    result = CliRunner().invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "city")])
    assert result.exit_code == 2, result.output
    assert "densities must be non-negative" in result.output
    assert not (tmp_path / "city").exists()


def test_synth_unknown_key_exits_2(tmp_path):
    spec = tmp_path / "city.cfg"
    spec.write_text("seed=5\ngrid_x=3\ngird_y=9\n")
    result = CliRunner().invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "city")])
    assert result.exit_code == 2
    assert "gird_y" in result.output
    assert not (tmp_path / "city").exists()


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
    out = tmp_path / "out"
    ran = runner.invoke(
        main,
        ["plan", demo_path("city3x3", "scenario.cfg"), "--out", str(out)],
    )
    assert ran.exit_code == 0, ran.output
    ok = runner.invoke(
        main, ["verify", demo_path("city3x3", "scenario.cfg"), str(out / "stops.csv")])
    assert ok.exit_code == 0, ok.output
    assert "coverage OK" in ok.output

    # drop every stop but the first: coverage must fail with exit 3
    lines = (out / "stops.csv").read_text().splitlines()
    (tmp_path / "pruned.csv").write_text("\n".join(lines[:2]) + "\n")
    bad = runner.invoke(
        main, ["verify", demo_path("city3x3", "scenario.cfg"),
               str(tmp_path / "pruned.csv")])
    assert bad.exit_code == 3
    assert "UNCOVERED" in bad.output


def test_verify_reports_the_overflow_stops_of_a_plan(tmp_path):
    # at a 10 kg cap each 19.92 kg demand gets an overflow stop of its own
    cfg = four_stops_with(tmp_path, "coverage.max_stop_load_kg=10")
    runner = CliRunner()
    ran = runner.invoke(main, ["plan", cfg, "--out", str(tmp_path / "out")])
    assert ran.exit_code == 0, ran.output
    assert "planned 104 stops" in ran.output
    ok = runner.invoke(main, ["verify", cfg, str(tmp_path / "out" / "stops.csv")])
    assert ok.exit_code == 0, ok.output
    assert f"overflow stops: {list(range(104))}\n" in ok.output
    assert "coverage OK" in ok.output


def test_plan_objective_option_plans_as_the_config_key_does(tmp_path, monkeypatch):
    city = tmp_path / "city"
    shutil.copytree(demo_path("city3x3"), city)
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
    for config, option, out in (("scenario.cfg", ["--objective", "distance"], "option"),
                                ("distance.cfg", [], "key")):
        r = runner.invoke(
            main, ["plan", str(city / config), *option, "--out", str(tmp_path / out)])
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
            ["plan", demo_path("city3x3", "scenario.cfg"),
             "--out", str(tmp_path / sub), "--seed", "11"],
        )
        assert r.exit_code == 0, r.output
    for name in ("stops.csv", "plan.csv", "routes.geojson", "summary.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("option", [
    ("coverage.radius_m", "-5"), ("coverage.radius_m", "nan"),
    ("coverage.radius_m", "inf"), ("generation_rate_kg_unit_day", "-1"),
    ("generation_rate_kg_unit_day", "nan"),
])
def test_verify_bad_argument_exits_2(tmp_path, option):
    key, value = option
    cfg = four_stops_with(tmp_path, f"{key}={value}")
    result = CliRunner().invoke(
        main, ["verify", cfg, os.path.join(GOLDEN, "stops.csv")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert key in result.output
    assert "UNCOVERED" not in result.output


def test_verify_audits_at_the_radius_of_its_config(tmp_path):
    # planned at 600 m, the stops serve demands beyond the demo's 300 m
    city = tmp_path / "city"
    shutil.copytree(demo_path("city3x3"), city)
    cfg = str(city / "scenario.cfg")
    with open(cfg, "a") as fh:
        fh.write("coverage.radius_m=600\n")
    runner = CliRunner()
    out = tmp_path / "out"
    ran = runner.invoke(main, ["plan", cfg, "--out", str(out)])
    assert ran.exit_code == 0, ran.output
    stops = str(out / "stops.csv")
    ok = runner.invoke(main, ["verify", cfg, stops])
    assert ok.exit_code == 0, ok.output
    assert "coverage OK" in ok.output
    narrow = runner.invoke(main, ["verify", demo_path("city3x3", "scenario.cfg"), stops])
    assert narrow.exit_code == 3, narrow.output
    assert "UNCOVERED" in narrow.output


def test_verify_depot_that_does_not_snap_exits_4(tmp_path):
    # verify loads its inputs through plan's stages, the depot snap among them
    cfg = four_stops_with(tmp_path, "depot.x_m=99000")
    result = CliRunner().invoke(
        main, ["verify", cfg, os.path.join(GOLDEN, "stops.csv")])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert "stage network/snap: " in result.output
    assert "coverage OK" not in result.output


def test_verify_shared_stop_over_the_load_cap_exits_4(tmp_path):
    # demand 25 (19.92 kg) moved from stop 0 to stop 1, each stop's
    # assigned_kg still its demands' mass: stop 1 weighs 537.84 kg
    with open(os.path.join(GOLDEN, "stops.csv")) as fh:
        rows = list(csv.reader(fh))
    for row, kg in ((1, -19.92), (2, 19.92)):
        rows[row][2] = repr(float(rows[row][2]) + kg)
    rows[1][4] = rows[1][4].removesuffix(";25")
    rows[2][4] = "25;" + rows[2][4]
    stops = tmp_path / "stops.csv"
    stops.write_text("".join(",".join(row) + "\n" for row in rows))
    result = CliRunner().invoke(
        main, ["verify", demo_path("four_stops", "scenario.cfg"), str(stops)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert ("stop 1 lists 27 demands and is assigned 537.84 kg, over the "
            "520.0 kg max_stop_load_kg") in result.output
    assert "coverage OK" not in result.output


@pytest.mark.parametrize("extra, message", [
    ("3,4,517.92,1800.0,78;79", "stop 3 is listed twice"),
    ("4,4,517.92,1800.0,103",
     "demand 103 is listed under stop 3 and again under stop 4"),
    ("4,4,517.92,1800.0,104;104",
     "demand 104 is listed under stop 4 and again under stop 4"),
], ids=["stop", "demand", "demand_in_one_stop"])
def test_verify_repeated_stop_or_demand_exits_4(tmp_path, extra, message):
    stops = tmp_path / "stops.csv"
    with open(os.path.join(GOLDEN, "stops.csv")) as fh:
        stops.write_text(fh.read() + extra + "\n")
    result = CliRunner().invoke(
        main, ["verify", demo_path("four_stops", "scenario.cfg"), str(stops)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{stops}: {message}" in result.output
    assert "coverage OK" not in result.output


@pytest.mark.parametrize("column, value", [
    (2, "nan"), (2, "-50.0"), (2, "inf"), (3, "nan"), (3, "-1.0"),
])
def test_verify_bad_stop_number_exits_4(tmp_path, column, value):
    with open(os.path.join(GOLDEN, "stops.csv")) as fh:
        lines = fh.read().splitlines()
    cells = lines[2].split(",")
    cells[column] = value
    lines[2] = ",".join(cells)
    stops = tmp_path / "stops.csv"
    stops.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(
        main, ["verify", demo_path("four_stops", "scenario.cfg"), str(stops)])
    name = ("assigned_kg", "service_time_s")[column - 2]
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert (f"{stops}: stop 1 {name} {float(value)} is not a finite "
            "non-negative number") in result.output
    assert "coverage OK" not in result.output


@pytest.mark.parametrize("row, column, value, messages", [
    (4, 4, "{};999", ["stop 3 lists demand 999, which is not a demand point"]),
    (1, 2, "100.0", ["stop 0 has assigned_kg 100.0 but its demands weigh "
                     "517.92", "generation_rate_kg_unit_day"]),
], ids=["unknown_demand", "assigned_kg"])
def test_verify_stop_inconsistent_with_the_demands_exits_4(tmp_path, row,
                                                           column, value,
                                                           messages):
    with open(os.path.join(GOLDEN, "stops.csv")) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = value.format(cells[column])
    lines[row] = ",".join(cells)
    stops = tmp_path / "stops.csv"
    stops.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(
        main, ["verify", demo_path("four_stops", "scenario.cfg"), str(stops)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    for message in messages:
        assert message in result.output
    assert "coverage OK" not in result.output


def test_non_utf8_summary_or_table_is_a_typed_error(tmp_path):
    summary = tmp_path / "summary.cfg"
    with open(demo_path("summaries", "proposed.cfg"), "rb") as fh:
        summary.write_bytes(fh.read() + b"# \xff\n")
    result = CliRunner().invoke(
        main, ["compare", demo_path("summaries", "existing.cfg"), str(summary)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"cannot read {summary}: 'utf-8' codec" in result.output

    cfg = four_stops_with(tmp_path)
    buildings = tmp_path / "buildings.csv"
    with open(buildings, "ab") as fh:
        fh.write(b"999,0.0,0.0,8\xff\n")
    result = CliRunner().invoke(
        main, ["verify", cfg, os.path.join(GOLDEN, "stops.csv")])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"cannot read {buildings}: 'utf-8' codec" in result.output


def test_oversized_csv_field_exits_4_naming_the_file(tmp_path):
    city = tmp_path / "city"
    shutil.copytree(demo_path("city3x3"), city)
    nodes = city / "nodes.csv"
    with open(nodes, "a") as fh:  # one field past the csv module's limit
        fh.write("99,0.0,0.0," + "9" * 140_000 + "\n")
    for args in (["plan", str(city / "scenario.cfg"), "--out", str(tmp_path / "out")],
                 ["verify", str(city / "scenario.cfg"),
                  os.path.join(GOLDEN, "stops.csv")]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{nodes}: line " in result.output
        assert "field larger than field limit" in result.output


@pytest.mark.parametrize("line", ["block_m=nan", "speed_kmh=inf",
                                  "block_m=-inf"])
def test_synth_non_finite_spec_number_exits_2(tmp_path, line):
    spec = tmp_path / "city.cfg"
    spec.write_text(f"seed=5\n{line}\n")
    result = CliRunner().invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "city")])
    assert result.exit_code == 2, result.output
    key = line.split("=")[0]
    assert f"key {key!r}: not a finite number" in result.output
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize("lines, sizes", [
    ("grid_x=1000000000\ngrid_y=1000000000\n",
     "1000000002000000001 nodes and 7000000000000000000 buildings"),
    ("grid_x=100\ngrid_y=100\nbuildings_per_block=1000\n",
     "10201 nodes and 10000000 buildings"),
])
def test_synth_spec_beyond_the_ceiling_exits_2(tmp_path, lines, sizes):
    spec = tmp_path / "city.cfg"
    spec.write_text(f"seed=5\n{lines}")
    result = CliRunner().invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "city")])
    assert result.exit_code == 2, result.output
    assert f"error: grid_x, grid_y and buildings_per_block give {sizes}" \
        in result.output
    assert not (tmp_path / "city").exists()


def test_compare_inconsistent_summary_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    with open(demo_path("summaries", "proposed.cfg")) as fh:
        bad.write_text(fh.read().replace("total_km=3347", "total_km=-3347"))
    result = CliRunner().invoke(
        main, ["compare", demo_path("summaries", "existing.cfg"), str(bad)])
    assert result.exit_code == 2, result.output
    assert "door-to-door: total_km is negative" in result.output


def test_count_beyond_the_float_range_exits_2(tmp_path):
    huge = "1" + "0" * 400
    bad = tmp_path / "huge.cfg"
    with open(demo_path("summaries", "proposed.cfg")) as fh:
        bad.write_text(fh.read().replace("n_trucks=50", f"n_trucks={huge}"))
    result = CliRunner().invoke(
        main, ["compare", demo_path("summaries", "existing.cfg"), str(bad)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'n_trucks': not a finite number" in result.output


def edited_existing_summary(tmp_path, **values) -> str:
    """A copy of the demo's existing summary with ``values`` replaced."""
    lines = []
    with open(demo_path("summaries", "existing.cfg")) as fh:
        for line in fh:
            key = line.split("=")[0]
            lines.append(f"{key}={values[key]}\n" if key in values else line)
    path = tmp_path / "existing.cfg"
    path.write_text("".join(lines))
    return str(path)


def test_compare_zero_baseline_exits_2(tmp_path):
    zero = edited_existing_summary(tmp_path, avg_route_h=0, total_time_h=0)
    result = CliRunner().invoke(
        main, ["compare", zero, demo_path("summaries", "proposed.cfg")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "baseline must be positive, got 0.0" in result.output


@pytest.mark.parametrize("values", [{"total_km": 1756, "avg_route_km": 0,
                                     "total_time_h": 0, "avg_route_h": 0},
                                    {"total_km": 0, "avg_route_km": 0}])
def test_compare_summary_with_totals_but_no_trucks_exits_2(tmp_path, values):
    bad = edited_existing_summary(tmp_path, n_trucks=0, **values)
    result = CliRunner().invoke(
        main, ["compare", bad, demo_path("summaries", "proposed.cfg")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "dumpster-collection: no trucks, but total_km" in result.output
