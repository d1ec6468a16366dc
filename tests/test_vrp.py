import math
import random
from itertools import permutations

import pytest

from helpers import make_stop, matrix_from_points, min_bins_exhaustive
from vrp_oracle import brute_force_vrp
from mswplan.errors import (
    InfeasibleStop,
    PlannerError,
    ShiftTooShort,
    UnknownNode,
    UnreachableStop,
)
from mswplan.network import CostMatrix
from mswplan.vrp import (
    MAX_MOVES,
    FleetSpec,
    RoutePlan,
    Trip,
    _clarke_wright_seqs,
    _Ctx,
    _improve_seqs,
    _pack_plan,
    _validate_instance,
    route_metrics,
    size_fleet,
    solve_vrp,
    verify_plan,
)

DEPOT = 0


def instance(matrix: CostMatrix, stops, fleet: FleetSpec) -> _Ctx:
    ctx = _Ctx(matrix, stops, DEPOT, fleet)
    _validate_instance(ctx)
    return ctx


def savings_trips(matrix: CostMatrix, stops, fleet: FleetSpec) -> list[Trip]:
    """The savings construction alone, as trips."""
    ctx = instance(matrix, stops, fleet)
    return [ctx.build_trip(seq) for seq in _clarke_wright_seqs(ctx)]


def descend(plan: RoutePlan, matrix: CostMatrix, fleet: FleetSpec) -> RoutePlan:
    """``plan`` after one local-search descent, packed onto trucks."""
    ctx = instance(matrix, list(plan.stops.values()), fleet)
    seqs = [list(t.stop_ids) for t in plan.all_trips()]
    return _pack_plan(ctx, _improve_seqs(ctx, seqs, MAX_MOVES))


def explicit_matrix(costs: dict[tuple[int, int], float],
                    speed_kmh: float = 40.0) -> CostMatrix:
    """Seconds matrix from an explicit leg-cost table (symmetric fill)."""
    ids = sorted({i for pair in costs for i in pair})
    time = []
    length = []
    for a in ids:
        trow, lrow = [], []
        for b in ids:
            t = 0.0 if a == b else costs.get((a, b), costs.get((b, a)))
            trow.append(t)
            lrow.append(t * speed_kmh / 3.6)
        time.append(tuple(trow))
        length.append(tuple(lrow))
    return CostMatrix(
        origins=tuple(ids), destinations=tuple(ids), metric="time",
        length_m=tuple(length), time_s=tuple(time),
    )


def leg_sum(matrix: CostMatrix, table, legs) -> float:
    """Sum of one matrix table over (origin, destination) node-id legs."""
    row, col = matrix.origins.index, matrix.destinations.index
    return sum(table[row(a)][col(b)] for a, b in legs)


def best_single_tour_cost(matrix: CostMatrix, stops, depot: int) -> float:
    """Exhaustive best order over one tour holding every stop."""
    best = math.inf
    for perm in permutations([s.id for s in stops]):
        node = {s.id: s.node for s in stops}
        seq = [depot] + [node[s] for s in perm] + [depot]
        cost = leg_sum(matrix, matrix.cost, zip(seq[:-1], seq[1:]))
        best = min(best, cost)
    return best


def test_single_stop_out_and_back():
    m = matrix_from_points({0: (0.0, 0.0), 1: (2000.0, 0.0)})
    stops = [make_stop(1, 1, 500.0)]
    plan = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)
    trips = plan.all_trips()
    assert len(trips) == 1
    assert trips[0].stop_ids == [1]
    assert trips[0].drive_time_s == pytest.approx(360.0)
    assert trips[0].service_time_s == pytest.approx(1800.0)
    assert trips[0].distance_m == pytest.approx(4000.0)
    assert plan.fleet_size == 1


def test_five_stops_on_a_line_match_exhaustive_tour():
    pts = {0: (0.0, 0.0)}
    for i in range(1, 6):
        pts[i] = (500.0 * i, 0.0)
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, 500.0) for i in range(1, 6)]
    plan = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)
    assert len(plan.all_trips()) == 1
    assert plan.cost == pytest.approx(best_single_tour_cost(m, stops, DEPOT))


def test_nine_stops_need_two_trips():
    pts = {0: (0.0, 0.0)}
    for i in range(1, 10):
        pts[i] = (300.0 * i, 100.0 * (i % 3))
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, 500.0) for i in range(1, 10)]
    plan = solve_vrp(m, stops, DEPOT, FleetSpec(capacity_kg=4000), seed=0)
    assert plan.n_trips >= math.ceil(9 * 500 / 4000)
    assert plan.n_trips == 2
    for t in plan.all_trips():
        assert t.load_kg <= 4000 + 1e-9


def test_savings_merge_when_tour_is_cheaper():
    m = explicit_matrix({(0, 1): 10.0, (0, 2): 10.0, (1, 2): 5.0})
    stops = [make_stop(1, 1, 500.0, service_s=60), make_stop(2, 2, 500.0, service_s=60)]
    trips = savings_trips(m, stops, FleetSpec())
    assert len(trips) == 1
    # merged tour 10+5+10 beats two out-and-backs 20+20
    assert trips[0].drive_time_s == pytest.approx(25.0)


def test_capacity_vetoes_merge():
    m = explicit_matrix({(0, 1): 10.0, (0, 2): 10.0, (1, 2): 5.0})
    stops = [make_stop(1, 1, 2500.0, service_s=60),
             make_stop(2, 2, 2500.0, service_s=60)]
    trips = savings_trips(m, stops, FleetSpec(capacity_kg=4000))
    assert len(trips) == 2


def test_single_stop_construction():
    m = explicit_matrix({(0, 1): 10.0})
    trips = savings_trips(m, [make_stop(1, 1, 100.0, service_s=60)], FleetSpec())
    assert len(trips) == 1
    assert trips[0].stop_ids == [1]
    assert trips[0].drive_time_s == pytest.approx(20.0)


def manual_plan(matrix: CostMatrix, stops, seqs, fleet: FleetSpec) -> RoutePlan:
    """Build a plan with trip fields recomputed here, not by the solver."""
    node = {s.id: s.node for s in stops}
    service = {s.id: s.service_time_s for s in stops}
    demand = {s.id: s.assigned_demand_kg for s in stops}
    trips = []
    for seq in seqs:
        legs = [DEPOT] + [node[s] for s in seq] + [DEPOT]
        pairs = list(zip(legs[:-1], legs[1:]))
        trips.append(
            Trip(
                stop_ids=list(seq),
                load_kg=sum(demand[s] for s in seq),
                drive_time_s=leg_sum(matrix, matrix.time_s, pairs),
                service_time_s=sum(service[s] for s in seq),
                unload_s=fleet.unload_s,
                distance_m=leg_sum(matrix, matrix.length_m, pairs),
            )
        )
    return RoutePlan(
        trucks=[(1, trips)],
        objective=matrix.metric,
        depot_node=DEPOT,
        stops={s.id: s for s in stops},
    )


def test_local_search_uncrosses_a_tour():
    pts = {0: (0.0, 0.0), 1: (1000.0, 50.0), 2: (2000.0, -50.0),
           3: (3000.0, 50.0), 4: (4000.0, 0.0)}
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, 100.0, service_s=60) for i in range(1, 5)]
    fleet = FleetSpec()
    crossed = manual_plan(m, stops, [[2, 1, 4, 3]], fleet)
    best = best_single_tour_cost(m, stops, DEPOT)
    assert crossed.cost > best + 1e-9
    improved = descend(crossed, m, fleet)
    assert improved.cost < crossed.cost - 1e-9
    assert improved.cost == pytest.approx(best)


def test_local_search_is_a_fixed_point_on_optimal_plans():
    pts = {0: (0.0, 0.0), 1: (1000.0, 0.0), 2: (2000.0, 0.0)}
    m = matrix_from_points(pts)
    stops = [make_stop(1, 1, 100.0, service_s=60),
             make_stop(2, 2, 100.0, service_s=60)]
    fleet = FleetSpec()
    plan = manual_plan(m, stops, [[1, 2]], fleet)
    improved = descend(plan, m, fleet)
    assert improved.cost == pytest.approx(plan.cost)
    assert [t.stop_ids for t in improved.all_trips()] == [[1, 2]]


def test_relocation_respects_capacity():
    # moving stop 2 next to stop 1 would shorten the drive but bust the cap
    pts = {0: (0.0, 0.0), 1: (5000.0, 100.0), 2: (5000.0, -100.0)}
    m = matrix_from_points(pts)
    stops = [make_stop(1, 1, 3000.0, service_s=60),
             make_stop(2, 2, 3000.0, service_s=60)]
    fleet = FleetSpec(capacity_kg=4000)
    plan = manual_plan(m, stops, [[1], [2]], fleet)
    improved = descend(plan, m, fleet)
    assert sorted(tuple(t.stop_ids) for t in improved.all_trips()) == [(1,), (2,)]
    assert improved.cost == pytest.approx(plan.cost)


def hours(*values):
    return [h * 3600.0 for h in values]


def trip_of_hours(h: float) -> Trip:
    return Trip(stop_ids=[int(h * 10)], load_kg=0.0, drive_time_s=h * 3600.0,
                service_time_s=0.0, unload_s=0.0, distance_m=0.0)


def test_first_fit_decreasing_pairs_long_with_short():
    trips = [trip_of_hours(h) for h in (5, 4, 3, 2)]
    assignment = size_fleet(trips, 8 * 3600.0)
    assert len(assignment) == 2
    groups = {tid: sorted(trips[k].drive_time_s / 3600 for k in idxs)
              for tid, idxs in assignment.items()}
    assert sorted(groups.values()) == [[2.0, 4.0], [3.0, 5.0]]
    assert min_bins_exhaustive(hours(5, 4, 3, 2), 8 * 3600.0) == 2


def test_single_trip_single_truck():
    assignment = size_fleet([trip_of_hours(5)], 8 * 3600.0)
    assert assignment == {1: [0]}


def test_three_long_trips_three_trucks():
    trips = [trip_of_hours(5) for _ in range(3)]
    assert len(size_fleet(trips, 8 * 3600.0)) == 3
    assert min_bins_exhaustive(hours(5, 5, 5), 8 * 3600.0) == 3


def test_trip_longer_than_shift_rejected():
    with pytest.raises(ShiftTooShort):
        size_fleet([trip_of_hours(9)], 8 * 3600.0)


def test_ffd_matches_exhaustive_optimum_on_small_cases():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 6)
        durations = [rng.uniform(0.5, 7.5) * 3600.0 for _ in range(n)]
        trips = [Trip([i], 0.0, d, 0.0, 0.0, 0.0)
                 for i, d in enumerate(durations)]
        ffd = len(size_fleet(trips, 8 * 3600.0))
        assert ffd == min_bins_exhaustive(durations, 8 * 3600.0)


def test_oracle_equals_heuristic_on_single_stop():
    m = matrix_from_points({0: (0.0, 0.0), 1: (1500.0, 800.0)})
    stops = [make_stop(1, 1, 400.0)]
    a = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)
    b = brute_force_vrp(m, stops, DEPOT, FleetSpec())
    assert a.cost == pytest.approx(b.cost)
    assert [t.stop_ids for t in a.all_trips()] == [t.stop_ids for t in b.all_trips()]


def test_oracle_square_matches_hand_tour():
    pts = {0: (0.0, 0.0), 1: (100.0, 100.0), 2: (-100.0, 100.0),
           3: (-100.0, -100.0), 4: (100.0, -100.0)}
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, 100.0, service_s=60) for i in range(1, 5)]
    opt = brute_force_vrp(m, stops, DEPOT, FleetSpec())
    # perimeter tour: two diagonal legs plus three square sides
    hand_m = 2 * math.hypot(100, 100) + 3 * 200.0
    assert opt.cost == pytest.approx(hand_m * 3.6 / 40.0)


def test_oracle_refuses_large_instances():
    pts = {0: (0.0, 0.0)}
    for i in range(1, 10):
        pts[i] = (float(i * 100), 0.0)
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, 10.0) for i in range(1, 10)]
    with pytest.raises(ValueError, match="8-stop"):
        brute_force_vrp(m, stops, DEPOT, FleetSpec())


def random_instance(rng, n_stops: int):
    pts = {0: (rng.uniform(0, 4000), rng.uniform(0, 4000))}
    for i in range(1, n_stops + 1):
        pts[i] = (rng.uniform(0, 4000), rng.uniform(0, 4000))
    m = matrix_from_points(pts)
    stops = [make_stop(i, i, rng.uniform(300, 600)) for i in range(1, n_stops + 1)]
    return m, stops


def test_heuristic_never_beats_oracle_and_stays_close():
    rng = random.Random(811)
    exact = 0
    total = 30
    for _ in range(total):
        m, stops = random_instance(rng, rng.randint(4, 6))
        fleet = FleetSpec(capacity_kg=4000)
        plan = solve_vrp(m, stops, DEPOT, fleet, seed=3)
        opt = brute_force_vrp(m, stops, DEPOT, fleet)
        assert plan.cost >= opt.cost - 1e-6
        assert plan.cost <= 1.15 * opt.cost
        if math.isclose(plan.cost, opt.cost, rel_tol=1e-9):
            exact += 1
    assert exact >= 0.8 * total


def test_solver_output_covers_each_stop_exactly_once():
    rng = random.Random(90)
    for _ in range(10):
        m, stops = random_instance(rng, rng.randint(3, 8))
        plan = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=1)
        seen = sorted(s for t in plan.all_trips() for s in t.stop_ids)
        assert seen == sorted(s.id for s in stops)
        for _, trips in plan.trucks:
            assert sum(t.total_time_s for t in trips) <= FleetSpec().shift_s + 1e-6


def test_identical_seeds_identical_plans():
    rng = random.Random(5)
    m, stops = random_instance(rng, 7)
    a = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=42)
    b = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=42)
    assert [t.stop_ids for t in a.all_trips()] == [t.stop_ids for t in b.all_trips()]
    assert [tid for tid, _ in a.trucks] == [tid for tid, _ in b.trucks]
    assert a.cost == b.cost


def test_distance_objective_reads_distance_matrix():
    rng = random.Random(17)
    pts = {i: (rng.uniform(0, 3000), rng.uniform(0, 3000)) for i in range(6)}
    m_dist = matrix_from_points(pts, metric="distance")
    stops = [make_stop(i, i, 400.0) for i in range(1, 6)]
    plan = solve_vrp(m_dist, stops, DEPOT, FleetSpec(), seed=0)
    assert plan.objective == "distance"
    assert plan.cost == pytest.approx(plan.total_distance_m)
    seen = sorted(s for t in plan.all_trips() for s in t.stop_ids)
    assert seen == [1, 2, 3, 4, 5]


def test_matrix_of_an_unknown_metric_is_rejected():
    # a matrix that could not be read by its metric is never built
    m = matrix_from_points({0: (0.0, 0.0), 1: (100.0, 0.0)})
    with pytest.raises(ValueError, match="metric must be one of "
                       r"\('time', 'distance'\), got 'hops'"):
        CostMatrix(m.origins, m.destinations, "hops", m.length_m, m.time_s)


def test_plan_of_an_unknown_objective_is_rejected():
    # a plan read by another objective would cost its trips by distance
    trips = [Trip([1], 10.0, 50.0, 0.0, 0.0, 700.0)]
    with pytest.raises(ValueError, match="metric must be one of "
                       r"\('time', 'distance'\), got 'hops'"):
        RoutePlan([(1, trips)], "hops", 0, {})


@pytest.mark.parametrize("name", ["capacity_kg", "unload_s", "shift_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_fleet_spec_rejects_a_value_that_is_not_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        FleetSpec(**{name: value})


def test_demand_above_capacity_is_infeasible():
    m = matrix_from_points({0: (0.0, 0.0), 1: (100.0, 0.0)})
    with pytest.raises(InfeasibleStop):
        solve_vrp(m, [make_stop(1, 1, 5000.0)], DEPOT,
                  FleetSpec(capacity_kg=4000), seed=0)


def test_unreachable_stop_detected():
    inf = math.inf
    m = CostMatrix(
        origins=(0, 1), destinations=(0, 1), metric="time",
        length_m=((0.0, inf), (inf, 0.0)),
        time_s=((0.0, inf), (inf, 0.0)),
    )
    with pytest.raises(UnreachableStop):
        solve_vrp(m, [make_stop(1, 1, 100.0)], DEPOT, FleetSpec(), seed=0)


def test_mandatory_trip_exceeding_shift_detected():
    m = matrix_from_points({0: (0.0, 0.0), 1: (2000.0, 0.0)})
    tight = FleetSpec(shift_s=2000.0)  # 360 drive + 1800 service + 900 unload
    with pytest.raises(ShiftTooShort, match="serving stop 1 alone takes"):
        solve_vrp(m, [make_stop(1, 1, 100.0)], DEPOT, tight, seed=0)


def test_matrix_that_lacks_a_stop_node_is_rejected_naming_it():
    m = matrix_from_points({0: (0.0, 0.0), 1: (100.0, 0.0)})
    stops = [make_stop(1, 1, 100.0), make_stop(2, 5, 100.0)]
    with pytest.raises(UnknownNode, match="^node 5 missing from the cost matrix$"):
        solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)


def test_trip_time_decomposition():
    # every leg exactly 2 km at 40 km/h: 180 s each
    m = explicit_matrix({(0, 1): 180.0, (1, 2): 180.0, (0, 2): 180.0})
    stops = [make_stop(1, 1, 500.0), make_stop(2, 2, 500.0)]
    plan = solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)
    metrics = route_metrics(plan)
    assert plan.n_trips == 1
    trip = plan.all_trips()[0]
    assert trip.drive_time_s == pytest.approx(540.0)
    assert trip.service_time_s == pytest.approx(3600.0)
    assert trip.unload_s == pytest.approx(900.0)
    assert trip.distance_m == pytest.approx(6000.0)
    assert trip.total_time_s == pytest.approx(540 + 3600 + 900)
    assert metrics.total_work_s == pytest.approx(trip.total_time_s)
    assert metrics.avg_route_distance_m == pytest.approx(6000.0)


def test_truck_count_times_average_recovers_published_totals():
    assert 16 * 110 == pytest.approx(1756, rel=0.005)
    assert 50 * 67 == pytest.approx(3347, rel=0.005)


def test_local_search_never_increases_cost():
    rng = random.Random(77)
    for _ in range(20):
        m, stops = random_instance(rng, rng.randint(3, 7))
        fleet = FleetSpec()
        ids = [s.id for s in stops]
        rng.shuffle(ids)
        # arbitrary split into one or two deliberately unoptimized trips
        cut = rng.randint(1, len(ids))
        seqs = [seq for seq in (ids[:cut], ids[cut:]) if seq]
        plan = manual_plan(m, stops, seqs, fleet)
        improved = descend(plan, m, fleet)
        assert improved.cost <= plan.cost + 1e-9


def test_metrics_totals_are_sums_of_per_truck_values():
    rng = random.Random(23)
    m, stops = random_instance(rng, 8)
    fleet = FleetSpec(shift_s=7200.0)
    stops = [make_stop(s.id, s.node, s.assigned_demand_kg, service_s=600.0)
             for s in stops]
    plan = solve_vrp(m, stops, DEPOT, fleet, seed=0)
    assert plan.fleet_size
    metrics = route_metrics(plan)
    trips = plan.all_trips()
    assert metrics.total_work_s == pytest.approx(sum(t.total_time_s for t in trips))
    assert metrics.total_distance_m == pytest.approx(sum(t.distance_m for t in trips))
    assert metrics.avg_route_time_s == pytest.approx(
        metrics.total_work_s / plan.fleet_size)
    assert metrics.avg_route_distance_m == pytest.approx(
        metrics.total_distance_m / plan.fleet_size)


def test_metrics_reject_a_trip_whose_drive_time_disagrees_with_the_matrix():
    m = explicit_matrix({(0, 1): 180.0, (1, 2): 180.0, (0, 2): 180.0})
    stops = [make_stop(1, 1, 500.0), make_stop(2, 2, 500.0)]
    fleet = FleetSpec()
    plan = solve_vrp(m, stops, DEPOT, fleet, seed=0)
    verify_plan(plan, m, fleet)
    trip = plan.all_trips()[0]
    trip.drive_time_s += 1.0
    with pytest.raises(PlannerError, match="truck 1 trip 1: drive_time_s 541.0 "
                       "disagrees with its re-sum 540.0"):
        verify_plan(plan, m, fleet)


def test_metrics_reject_a_trip_through_a_node_the_matrix_lacks():
    m = explicit_matrix({(0, 1): 180.0, (1, 2): 180.0, (0, 2): 180.0})
    stops = [make_stop(1, 1, 500.0), make_stop(2, 2, 500.0)]
    fleet = FleetSpec()
    plan = solve_vrp(m, stops, DEPOT, fleet, seed=0)
    plan.stops[2] = make_stop(2, 7, 500.0)
    with pytest.raises(UnknownNode, match="truck 1 trip 1: node 7 missing from "
                       "the cost matrix"):
        verify_plan(plan, m, fleet)


def _merge_trucks(plan, ctx):
    plan.trucks = [(1, plan.all_trips())]


def _merge_trips(plan, ctx):
    seq = [s for t in plan.all_trips() for s in t.stop_ids]
    plan.trucks = [(1, [ctx.build_trip(seq)])]


def _rebuild_last_trip(change):
    def mutate(plan, ctx):
        first, last = plan.all_trips()[0], plan.trucks[-1][1][-1]
        plan.trucks[-1][1][-1] = ctx.build_trip(change(last.stop_ids, first.stop_ids))
    return mutate


def _add_one(field):
    def mutate(plan, ctx):
        trip = plan.all_trips()[0]
        setattr(trip, field, getattr(trip, field) + 1.0)
    return mutate


def _forget_stop(plan, ctx):
    del plan.stops[plan.all_trips()[0].stop_ids[0]]


def _zero(field):
    def mutate(plan, ctx):
        setattr(plan.all_trips()[0], field, 0.0)
    return mutate


def _append_empty_trip(plan, ctx):
    plan.trucks[0][1].append(Trip([], 0.0, 0.0, 0.0, ctx.fleet.unload_s, 0.0))


@pytest.mark.parametrize("mutate, fault", [
    (_add_one("distance_m"), r"truck 1 trip 1: distance_m \d+\.\d+ disagrees with "
     r"its re-sum \d+\.\d+"),
    (_add_one("load_kg"), r"truck 1 trip 1: load_kg 3001.0 disagrees with its re-sum "
     r"3000.0"),
    (_merge_trips, r"truck 1 trip 1: load 6000.0 kg exceeds the 4000.0 kg capacity"),
    (_merge_trucks, r"truck 1: trips take \d+\.\d+ s, longer than the 6000.0 s shift"),
    (_rebuild_last_trip(lambda last, first: last[:-1]), r"stops \[\d\] are not planned"),
    (_rebuild_last_trip(lambda last, first: last + first[:1]),
     r"truck 2 trip 1: stop \d is planned more than once"),
    (_forget_stop, r"truck 1 trip 1: stop \d is not a stop of the plan"),
    (_zero("service_time_s"), r"truck 1 trip 1: service_time_s 0.0 disagrees "
     r"with its re-sum 3600.0"),
    (_zero("unload_s"), r"truck 1 trip 1: unload_s 0.0 is not the fleet's 900.0 s"),
    (_append_empty_trip, r"truck 1 trip 2: visits no stops"),
], ids=["length", "load_kg", "load", "shift", "dropped", "repeated", "unknown_stop",
        "service", "unload", "empty_trip"])
def test_verify_plan_names_each_fault(mutate, fault):
    # two stops fill a truck, one trip fills a shift: two trucks of one trip
    m = matrix_from_points({0: (0.0, 0.0), 1: (1000.0, 0.0), 2: (1000.0, 500.0),
                            3: (-1000.0, 0.0), 4: (-1000.0, 500.0)})
    stops = [make_stop(i, i, 1500.0) for i in range(1, 5)]
    fleet = FleetSpec(shift_s=6000.0)
    plan = solve_vrp(m, stops, DEPOT, fleet, seed=0)
    assert [len(trips) for _, trips in plan.trucks] == [1, 1]
    verify_plan(plan, m, fleet)
    mutate(plan, _Ctx(m, stops, DEPOT, fleet))
    with pytest.raises(PlannerError, match=fault):
        verify_plan(plan, m, fleet)


def test_repeated_stop_id_rejected():
    m = matrix_from_points({0: (0.0, 0.0), 1: (1000.0, 0.0), 2: (0.0, 1000.0)})
    stops = [make_stop(1, 1, 100.0), make_stop(1, 2, 200.0)]
    with pytest.raises(ValueError, match="stop id 1 appears more than once"):
        solve_vrp(m, stops, DEPOT, FleetSpec(), seed=0)
