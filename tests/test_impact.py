import csv
import io
import math
import random
import re
from dataclasses import replace

import pytest

from mswplan.errors import (
    DataError,
    InconsistentSummary,
    NegativeInput,
    NonpositiveBaseline,
    ZeroDistance,
)
from mswplan.impact import (
    ComparisonReport,
    ImpactFactors,
    ScenarioSummary,
    calibrate_factors,
    compare_scenarios,
    daily_impacts,
    format_comparison_table,
    format_comparison_text,
    load_factors,
    percent_improvement,
    write_factors,
)

# Published comparison rows used as reference data throughout:
# 16 x 18 t trucks over 381 dumpster stops vs 50 x 4 t trucks over 500
# door-to-door stops.
DUMPSTER = ScenarioSummary(
    name="dumpster-collection",
    n_trucks=16,
    truck_capacity_kg=18000,
    n_stops=381,
    avg_stop_time_s=900,
    avg_route_km=110,
    total_km=1756,
    avg_route_h=5.3,
    total_time_h=84.6,
    energy_mj_day=108907,
    co_g_day=142,
    co2_g_day=34197,
    nox_g_day=473,
)
DOOR_TO_DOOR = ScenarioSummary(
    name="door-to-door",
    n_trucks=50,
    truck_capacity_kg=4000,
    n_stops=500,
    avg_stop_time_s=1800,
    avg_route_km=67,
    total_km=3347,
    avg_route_h=1.2,
    total_time_h=62.2,
    energy_mj_day=336089,
    co_g_day=97,
    co2_g_day=19462,
    nox_g_day=210,
)


def energy(total_km, n_stop_visits, f):
    return daily_impacts(total_km, n_stop_visits, f)["energy_mj_day"]


def emissions(total_km, n_stop_visits, f):
    """(CO, CO2, NOx) grams per day."""
    got = daily_impacts(total_km, n_stop_visits, f)
    return got["co_g_day"], got["co2_g_day"], got["nox_g_day"]


def test_energy_reproduces_published_total():
    f = ImpactFactors(energy_mj_per_km=62.02)
    assert energy(1756, 0, f) == pytest.approx(108907, rel=0.005)


def test_energy_zero_and_linearity():
    f = ImpactFactors(energy_mj_per_km=10.0, energy_mj_per_stop=2.0)
    assert energy(0, 0, f) == 0.0
    assert energy(2 * 7, 2 * 3, f) == pytest.approx(2 * energy(7, 3, f))


def test_daily_impacts_fill_the_summary_fields_by_their_formula():
    f = ImpactFactors(*range(1, 9))
    assert daily_impacts(7, 3, f) == {
        "energy_mj_day": 1 * 7 + 2 * 3, "co_g_day": 3 * 7 + 6 * 3,
        "co2_g_day": 4 * 7 + 7 * 3, "nox_g_day": 5 * 7 + 8 * 3}


def test_negative_inputs_rejected():
    f = ImpactFactors()
    with pytest.raises(NegativeInput):
        daily_impacts(-1, 0, f)
    with pytest.raises(NegativeInput):
        daily_impacts(0, -1, f)
    with pytest.raises(NegativeInput):
        ImpactFactors(co_g_per_km=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_impact_factors_reject_a_value_that_is_not_finite(value):
    with pytest.raises(NegativeInput, match="co2_g_per_stop must be finite"):
        ImpactFactors(co2_g_per_stop=value)


def test_emission_totals_from_calibrated_factors():
    f_existing = calibrate_factors(DUMPSTER)
    co, co2, nox = emissions(1756, 0, f_existing)
    assert co2 == pytest.approx(34197, rel=0.005)
    assert co == pytest.approx(142, rel=0.005)
    f_proposed = calibrate_factors(DOOR_TO_DOOR)
    assert f_proposed.nox_g_per_km == pytest.approx(0.06274, rel=1e-3)
    _, _, nox_p = emissions(3347, 0, f_proposed)
    assert nox_p == pytest.approx(210, rel=0.005)
    assert emissions(0, 0, f_existing) == (0.0, 0.0, 0.0)


def test_published_time_totals_are_consistent():
    assert 16 * 5.3 == pytest.approx(84.6, rel=0.005)
    assert 50 * 1.2 == pytest.approx(62.2, rel=0.04)


def test_calibration_values_and_round_trip():
    f = calibrate_factors(DUMPSTER)
    assert f.energy_mj_per_km == pytest.approx(108907 / 1756)
    assert f.energy_mj_per_km == pytest.approx(62.02, rel=1e-3)
    assert f.co_g_per_km == pytest.approx(0.08086, rel=1e-3)
    f2 = calibrate_factors(DOOR_TO_DOOR)
    assert f2.energy_mj_per_km == pytest.approx(100.41, rel=1e-3)
    for summary in (DUMPSTER, DOOR_TO_DOOR):
        fs = calibrate_factors(summary)
        assert energy(summary.total_km, summary.n_stops, fs) == \
            pytest.approx(summary.energy_mj_day, rel=1e-12)
        co, co2, nox = emissions(summary.total_km, summary.n_stops, fs)
        assert co == pytest.approx(summary.co_g_day, rel=1e-12)
        assert co2 == pytest.approx(summary.co2_g_day, rel=1e-12)
        assert nox == pytest.approx(summary.nox_g_day, rel=1e-12)


def test_calibration_needs_positive_distance():
    summary = ScenarioSummary("idle", 0, 1000, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ZeroDistance):
        calibrate_factors(summary)


def test_percent_improvement_examples():
    p = percent_improvement(84.6, 62.2)
    assert p == pytest.approx(26.48, abs=0.01)
    assert round(p, 1) == 26.5
    assert percent_improvement(473, 210) == pytest.approx(55.6, abs=0.05)
    assert percent_improvement(7.0, 7.0) == 0.0
    with pytest.raises(NonpositiveBaseline):
        percent_improvement(0.0, 5.0)


def test_comparison_matches_published_percentages():
    report = compare_scenarios(DUMPSTER, DOOR_TO_DOOR)
    expected = {
        "avg_route_distance_km": 39.1,
        "avg_route_time_h": 77.4,
        "total_time_h": 26.48,
        "co_g_day": 31.7,
        "co2_g_day": 43.1,
        "nox_g_day": 55.6,
        "total_distance_km": -90.6,
    }
    for key, value in expected.items():
        assert report.improvements[key] == pytest.approx(value, abs=0.05)


def test_identical_scenarios_compare_flat():
    report = compare_scenarios(DUMPSTER, DUMPSTER)
    assert all(v == 0.0 for v in report.improvements.values())


def test_swapped_comparison_follows_reciprocal_identity():
    fwd = compare_scenarios(DUMPSTER, DOOR_TO_DOOR)
    rev = compare_scenarios(DOOR_TO_DOOR, DUMPSTER)
    for key, p in fwd.improvements.items():
        assert rev.improvements[key] == pytest.approx(-p / (1 - p / 100.0))


def test_linearity_of_consumption_models():
    rng = random.Random(12)
    for _ in range(20):
        f = ImpactFactors(
            energy_mj_per_km=rng.uniform(0, 100),
            energy_mj_per_stop=rng.uniform(0, 10),
            co_g_per_km=rng.uniform(0, 5),
            co2_g_per_km=rng.uniform(0, 50),
            nox_g_per_km=rng.uniform(0, 2),
            co_g_per_stop=rng.uniform(0, 1),
            co2_g_per_stop=rng.uniform(0, 10),
            nox_g_per_stop=rng.uniform(0, 1),
        )
        km, stops = rng.uniform(0, 2000), rng.randint(0, 400)
        lam = rng.uniform(0, 5)
        assert energy(lam * km, lam * stops, f) == pytest.approx(
            lam * energy(km, stops, f)
        )
        base = emissions(km, stops, f)
        scaled = emissions(lam * km, lam * stops, f)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(lam * b)


def test_summary_rejects_inconsistent_totals():
    with pytest.raises(InconsistentSummary):
        ScenarioSummary("broken", 10, 4000, 100, 900,
                        avg_route_km=50, total_km=900,  # 10*50 misses 900 by >5%
                        avg_route_h=2, total_time_h=20)
    with pytest.raises(InconsistentSummary):
        ScenarioSummary("negative", 10, 4000, 100, 900, 50, 500, 2, -20)


@pytest.mark.parametrize("field", ["total_km", "avg_route_km", "avg_stop_time_s",
                                   "co2_g_day"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_summary_rejects_a_value_that_is_not_finite(field, value):
    values = dict(name="x", n_trucks=2, truck_capacity_kg=4000, n_stops=10,
                  avg_stop_time_s=900, avg_route_km=5.0, total_km=10.0,
                  avg_route_h=1.0, total_time_h=2.0)
    with pytest.raises(InconsistentSummary, match=f"x: {field} is not finite"):
        ScenarioSummary(**values | {field: value})


@pytest.mark.parametrize("name", ["old\nsystem", "old\rsystem", "old system\r\n"])
def test_summary_rejects_a_name_holding_a_line_break(name):
    # summary.cfg is one key=value a line, and the csv module quotes a bare
    # carriage return in comparison.csv only from Python 3.13
    with pytest.raises(InconsistentSummary, match=r"^name '.*' holds a line break$"):
        replace(DUMPSTER, name=name)


def test_published_summaries_pass_consistency_gate():
    # worst drift: 50 trucks x 1.2 h vs 62.2 h/day
    drift = abs(50 * 1.2 - 62.2) / 62.2
    assert drift < 0.05
    assert DUMPSTER.total_km == 1756
    assert DOOR_TO_DOOR.total_time_h == 62.2


def test_table_format_mirrors_row_names_and_rounds_once():
    report = compare_scenarios(DUMPSTER, DOOR_TO_DOOR)
    table = format_comparison_table(report)
    for label in (
        "Number of Trucks",
        "Truck Capacity (ton)",
        "Number of Stop points",
        "Average Time spent at each Collection Point (min.)",
        "Average Route Distance (km)",
        "Total Traveled Distance (km)",
        "Average Route Time (hr.)",
        "Total Energy Consumption (MJ/day)",
        "Total Time Consumption (h/day)",
        "CO Emissions (g/day)",
        "CO2 Emissions (g/day)",
        "NOx Emissions (g/day)",
    ):
        assert label in table
    assert "26.5%" in table
    assert "-90.6%" in table
    assert ",18," in table  # capacity printed in tons
    # internal values stay unrounded
    assert report.improvements["total_time_h"] != 26.5
    text = format_comparison_text(report)
    assert "90.6% worse" in text
    assert "26.5% better" in text


@pytest.mark.parametrize("existing, proposed", [
    ("door,to,door", 'the "old" way'),
    ('a,"b"', "plain"),
])
def test_table_quotes_a_name_holding_a_comma_or_a_quote(existing, proposed):
    report = compare_scenarios(replace(DUMPSTER, name=existing),
                               replace(DOOR_TO_DOOR, name=proposed))
    rows = list(csv.reader(io.StringIO(format_comparison_table(report))))
    assert rows[0] == ["Metric", existing, proposed, "% Improvement"]
    assert len(rows) == 13 and all(len(row) == 4 for row in rows)
    # and names without either keep their bytes
    plain = format_comparison_table(compare_scenarios(DUMPSTER, DOOR_TO_DOOR))
    assert plain.startswith(
        "Metric,dumpster-collection,door-to-door,% Improvement\n"
        "Number of Trucks,16,50,-\n")


def test_factor_table_round_trip(tmp_path):
    table = {
        "4t": calibrate_factors(DOOR_TO_DOOR),
        "18t": calibrate_factors(DUMPSTER),
    }
    path = str(tmp_path / "factors.csv")
    write_factors(table, path)
    back = load_factors(path)
    assert set(back) == {"4t", "18t"}
    assert back["18t"] == table["18t"]
    assert back["4t"].energy_mj_per_km == table["4t"].energy_mj_per_km


def test_comparison_report_percents_recompute_exactly():
    report = compare_scenarios(DUMPSTER, DOOR_TO_DOOR)
    assert isinstance(report, ComparisonReport)
    for key, attr in {
        "total_time_h": "total_time_h",
        "co_g_day": "co_g_day",
    }.items():
        again = percent_improvement(
            getattr(DUMPSTER, attr), getattr(DOOR_TO_DOOR, attr)
        )
        assert abs(again - report.improvements[key]) < 0.1


def test_per_class_factors_differ_between_truck_classes():
    heavy = calibrate_factors(DUMPSTER)
    light = calibrate_factors(DOOR_TO_DOOR)
    assert not math.isclose(heavy.energy_mj_per_km, light.energy_mj_per_km,
                            rel_tol=0.05)


def test_repeated_factor_row_rejected_naming_class_and_quantity(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text("class,quantity,per_km,per_stop\n"
                    "4t,energy_mj,3.0,0.5\n4t,co_g,1.0,0.0\n"
                    "18t,energy_mj,9.0,0.5\n4t,energy_mj,4.0,0.5\n")
    with pytest.raises(DataError, match=rf"{re.escape(str(path))}: class '4t' "
                       r"energy_mj appears more than once"):
        load_factors(str(path))


def test_summary_without_trucks_rejects_positive_totals():
    with pytest.raises(InconsistentSummary, match="no trucks"):
        ScenarioSummary("none", 0, 4000, 100, 900, 0, 1756, 0, 0)
    with pytest.raises(InconsistentSummary, match="no trucks"):
        ScenarioSummary("none", 0, 4000, 100, 900, 0, 0, 0, 84.6)
    ScenarioSummary("idle", 0, 4000, 0, 0, 0, 0, 0, 0)
