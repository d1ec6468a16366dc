"""Fuzzing of whole plans on tiny cities.

Whatever grid, density, radius, stop cap, truck capacity, shift and
objective a scenario asks for, ``run_pipeline`` either returns a plan
that visits each stop once within the capacity and the shift, or
raises a typed PlannerError: one whose cause the CLI maps to a
configuration, infeasibility or data exit code. A bare exception, a
broken planner invariant (exit 5) or an infeasible plan fails the
property.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mswplan import network, vrp
from mswplan.cli import EXIT_INTERNAL, _exit_code
from mswplan.coverage import CoverageConfig
from mswplan.errors import PlannerError, StageError
from mswplan.pipeline import ScenarioConfig, run_pipeline
from mswplan.synth import SyntheticCitySpec, write_city

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@FUZZ
@given(
    seed=st.integers(0, 2**16),
    grid_x=st.integers(1, 3),
    grid_y=st.integers(1, 3),
    buildings_per_block=st.integers(0, 5),
    radius_m=st.floats(1.0, 600.0),
    max_stop_load_kg=st.floats(1.0, 400.0),
    service_time_s=st.floats(0.0, 3600.0),
    capacity_kg=st.floats(5.0, 400.0),
    unload_s=st.floats(1.0, 1800.0),
    shift_s=st.floats(60.0, 30000.0),
    objective=st.sampled_from(network.METRICS),
)
def test_tiny_city_plans_or_fails_with_a_typed_error(
        seed, grid_x, grid_y, buildings_per_block, radius_m, max_stop_load_kg,
        service_time_s, capacity_kg, unload_s, shift_s, objective):
    spec = SyntheticCitySpec(seed=seed, grid_x=grid_x, grid_y=grid_y,
                             buildings_per_block=buildings_per_block)
    fleet = vrp.FleetSpec(capacity_kg=capacity_kg, unload_s=unload_s,
                          shift_s=shift_s)
    with tempfile.TemporaryDirectory() as work:
        paths = write_city(spec, work)
        cfg = ScenarioConfig(
            nodes_path=paths["nodes"], edges_path=paths["edges"],
            buildings_path=paths["buildings"], depot_x_m=0.0, depot_y_m=0.0,
            coverage=CoverageConfig(radius_m=radius_m,
                                    max_stop_load_kg=max_stop_load_kg,
                                    service_time_s=service_time_s),
            fleet=fleet, objective=objective, seed=seed)
        try:
            result = run_pipeline(cfg, os.path.join(work, "out"))
        except PlannerError as exc:
            cause = exc.cause if isinstance(exc, StageError) else exc
            assert isinstance(cause, PlannerError), repr(cause)
            assert _exit_code(exc) != EXIT_INTERNAL, repr(cause)
            return
    planned = sorted(s for t in result.plan.all_trips() for s in t.stop_ids)
    assert planned == sorted(s.id for s in result.stops)
    for trip in result.plan.all_trips():
        assert trip.load_kg <= capacity_kg + 1e-9
        assert trip.total_time_s <= shift_s + 1e-9
    for _, trips in result.plan.trucks:
        assert sum(t.total_time_s for t in trips) <= shift_s + 1e-6
