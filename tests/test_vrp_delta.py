"""Position-based construction and delta-evaluated local search against
the node-id, full-recompute reference.

``mswplan.vrp._improve_seqs`` prices moves from per-trip prefix data and
confirms only promising ones by full recomputation; the savings and
insertion constructions read the instance tables by position. These
tests hold them to the verbatim originals in ``vrp_reference.py`` on
random instances built to stress them: asymmetric matrices with
non-integer and tie-prone costs, rows and columns in shuffled orders,
stops sharing nodes, and capacity and shift limits tight enough that
the feasibility vetoes fire, under both objectives.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_stop
from mswplan import network, vrp
from mswplan.coverage import CoverageConfig, aggregate_demand, place_stops
from mswplan.network import CostMatrix
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city
from mswplan.vrp import (
    MAX_MOVES,
    RUIN_SIZE,
    RUINS,
    FleetSpec,
    _canonical,
    _cheapest_insertion_seqs,
    _clarke_wright_seqs,
    _Ctx,
    _flip_prefix,
    _improve_seqs,
    _insertion_deltas,
    _pack_plan,
    _removal_delta,
    _reversal_deltas,
    _without,
    _validate_instance,
)
from vrp_reference import _cheapest_insertion_seqs as insertion_reference
from vrp_reference import _clarke_wright_seqs as savings_reference
from vrp_reference import _improve_seqs as improve_seqs_reference
from vrp_reference import full_recompute

DETERMINISTIC = settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
# enough draws that a zeroed rounding slack or a load skip without the
# capacity's _EPS is caught
DIFFERENTIAL = settings(DETERMINISTIC, max_examples=1000)


def random_table(rng, n: int, style: str) -> tuple[tuple[float, ...], ...]:
    """Asymmetric n x n costs. "tenths" draws multiples of 0.1, whose
    sums round (0.1 + 0.2 != 0.3), so exact ties in real numbers become
    near-ties in floats; "eps" puts many deltas within rounding of the
    -1e-9 improvement threshold; "uniform" draws arbitrary non-integers."""
    def draw(a: int, b: int) -> float:
        if a == b:
            return rng.choice((0.0, 0.0, 0.1, 0.3))
        if style == "tenths":
            return rng.randint(1, 9) * 0.1
        if style == "eps":
            return 1.0 + rng.randint(0, 3) * 5e-10
        return rng.uniform(1.0, 500.0)

    return tuple(tuple(draw(a, b) for b in range(n)) for a in range(n))


def random_instance(seed: int, n_stops: int, n_nodes: int, objective: str,
                    style: str):
    """(ctx, stop ids, matrix) with capacity and shift only just above what the
    largest single stop needs."""
    rng = random.Random(seed)
    ids = tuple(range(n_nodes + 1))
    time_s = random_table(rng, len(ids), style)
    length_m = random_table(rng, len(ids), style)
    # tenths of a kg, so trip loads land on the capacity up to rounding
    stops = [
        make_stop(sid, rng.choice(ids), rng.randint(0, 30) * 0.1,
                  service_s=rng.uniform(0.0, 30.0))
        for sid in range(1, n_stops + 1)
    ]
    demands = [s.assigned_demand_kg for s in stops]
    capacity = max(max(demands), 0.1) + rng.randint(0, 40) * 0.1
    unload = rng.uniform(1.0, 60.0)
    alone = max(time_s[0][s.node] + time_s[s.node][0] + s.service_time_s
                for s in stops) + unload
    fleet = FleetSpec(capacity_kg=capacity, unload_s=unload,
                      shift_s=alone * rng.uniform(1.0, 2.5))
    # matrix rows and columns in their own orders, neither that of the node
    # ids, so a wrong row or column map in _Ctx.__init__ shows
    origins, destinations = list(ids), list(ids)
    rng.shuffle(origins)
    rng.shuffle(destinations)

    def by_index(table):
        return tuple(tuple(table[a][b] for b in destinations) for a in origins)

    matrix = CostMatrix(origins=tuple(origins), destinations=tuple(destinations),
                        metric=objective, length_m=by_index(length_m),
                        time_s=by_index(time_s))
    ctx = _Ctx(matrix, stops, 0, fleet)
    _validate_instance(ctx)
    return ctx, [s.id for s in stops], matrix


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(1, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
)
def test_instance_tables_equal_the_matrix_by_node_id(seed, n_stops, n_nodes,
                                                     objective):
    ctx, ids, matrix = random_instance(seed, n_stops, n_nodes, objective,
                                       "uniform")
    row = {nid: i for i, nid in enumerate(matrix.origins)}
    col = {nid: i for i, nid in enumerate(matrix.destinations)}
    assert ctx.cost is (ctx.time if objective == "time" else ctx.length)
    for table, cells in ((ctx.time, matrix.time_s), (ctx.length, matrix.length_m)):
        assert len(table) == len(ctx.nodes)
        for a, line in zip(ctx.nodes, table):
            assert line == [cells[row[a]][col[b]] for b in ctx.nodes]
    # the depot is position 0 and listed once; each stop sits at its node
    assert ctx.nodes[0] == 0 and len(set(ctx.nodes)) == len(ctx.nodes)
    assert all(ctx.nodes[ctx.at[sid]] == ctx.stops[sid].node for sid in ids)


def starting_seqs(ctx, ids, rng, start: str) -> list[list[int]]:
    if start == "savings":
        return _clarke_wright_seqs(ctx)
    order = ids[:]
    rng.shuffle(order)
    if start == "insertion":
        return _cheapest_insertion_seqs(ctx, order)
    # arbitrary chunks, feasible or not: the descent must agree either way
    seqs, k = [], 0
    while k < len(order):
        step = rng.randint(1, len(order))
        seqs.append(order[k:k + step])
        k += step
    return seqs


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(1, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
    start=st.sampled_from(("savings", "insertion", "chunks")),
    max_moves=st.sampled_from((1, 2, 5, 10_000)),
)
def test_delta_descent_matches_full_recompute(seed, n_stops, n_nodes, objective,
                                              style, start, max_moves):
    ctx, ids, matrix = random_instance(seed, n_stops, n_nodes, objective, style)
    seqs = starting_seqs(ctx, ids, random.Random(seed), start)
    expected = improve_seqs_reference(full_recompute(ctx, matrix),
                                      [list(s) for s in seqs], max_moves)
    assert _improve_seqs(ctx, [list(s) for s in seqs], max_moves) == expected


def fresh_reference(ctx: _Ctx, matrix: CostMatrix) -> _Ctx:
    """A full-recompute context on a new instance of ``ctx``'s inputs, so
    it shares no search memory with ``ctx``."""
    return full_recompute(_Ctx(matrix, list(ctx.stops.values()), ctx.depot,
                               ctx.fleet), matrix)


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(1, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
    max_moves=st.sampled_from((1, 2, 10_000)),
)
def test_descents_sharing_one_instance_match_fresh_full_recompute(
        seed, n_stops, n_nodes, objective, style, max_moves):
    # one _Ctx, so one search memory, for every descent: what an earlier
    # descent proved must hold for the trips of a later one
    ctx, ids, matrix = random_instance(seed, n_stops, n_nodes, objective, style)
    rng = random.Random(seed)
    starts = [starting_seqs(ctx, ids, rng, start) for start in
              ("savings", "insertion", "insertion", "insertion", "chunks")]
    starts.append(rng.choice(starts))
    for seqs in starts:
        expected = improve_seqs_reference(fresh_reference(ctx, matrix),
                                          [list(s) for s in seqs], max_moves)
        assert _improve_seqs(ctx, [list(s) for s in seqs], max_moves) == expected


def reference_solve(ref: _Ctx, seed: int, skipped=None) -> list[list[int]]:
    """The ruin-and-recreate rounds of ``solve_vrp``, composed from the
    reference steps, with the ruin's nearest stops found by node id.
    Rounds skipped for a cut trip over the shift go on ``skipped``."""
    best = improve_seqs_reference(ref, savings_reference(ref), MAX_MOVES)
    best_cost = sum(ref.drive_cost(s) for s in best)
    ids = sorted(ref.stops)
    for r in range(1, RUINS + 1) if ids else ():
        rng = random.Random(seed * 1_000_003 + r)
        centre = ref.node_of[rng.choice(ids)]
        removed = sorted(ids, key=lambda s: (ref.c(centre, ref.node_of[s]), s))
        removed = removed[:RUIN_SIZE]
        rng.shuffle(removed)
        kept = [[s for s in seq if s not in removed] for seq in best]
        if not all(ref.shift_ok(seq) for seq in kept if seq):
            if skipped is not None:
                skipped.append(r)
            continue
        seqs = improve_seqs_reference(ref, insertion_reference(ref, removed, kept),
                                      MAX_MOVES)
        cost = sum(ref.drive_cost(s) for s in seqs)
        if cost < best_cost - vrp._EPS:
            best, best_cost = seqs, cost
    return best


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(1, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
    solve_seed=st.integers(0, 1000),
)
def test_solve_matches_a_reference_solve(seed, n_stops, n_nodes, objective, style,
                                         solve_seed):
    ctx, _, matrix = random_instance(seed, n_stops, n_nodes, objective, style)
    ref = fresh_reference(ctx, matrix)
    plan = vrp.solve_vrp(matrix, list(ctx.stops.values()), ctx.depot,
                         ctx.fleet, seed=solve_seed)
    assert plan == _pack_plan(ref, reference_solve(ref, solve_seed))


def drive_cost_of(ctx: _Ctx, seqs) -> float:
    """Total drive cost summed over trips in ``_canonical`` order, as
    ``solve_vrp`` compares its candidates."""
    return sum(ctx.drive_cost(seq) for seq in _canonical(seqs))


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.sampled_from((0, 1)) | st.integers(2, RUIN_SIZE)
    | st.integers(RUIN_SIZE + 1, 14),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
    solve_seed=st.integers(0, 1000),
)
def test_ruin_and_recreate_never_costs_more_than_candidate_zero(
        seed, n_stops, n_nodes, objective, style, solve_seed):
    ctx, _, matrix = random_instance(seed, max(n_stops, 1), n_nodes, objective,
                                     style)
    stops = list(ctx.stops.values())[:n_stops]
    plan = vrp.solve_vrp(matrix, stops, ctx.depot, ctx.fleet, seed=solve_seed)
    vrp.verify_plan(plan, matrix, ctx.fleet)
    assert plan == vrp.solve_vrp(matrix, stops, ctx.depot, ctx.fleet,
                                 seed=solve_seed)
    fresh = _Ctx(matrix, stops, ctx.depot, ctx.fleet)
    zero = _improve_seqs(fresh, _clarke_wright_seqs(fresh), MAX_MOVES)
    solved = [t.stop_ids for t in plan.all_trips()]
    assert drive_cost_of(fresh, solved) <= drive_cost_of(fresh, zero)


# Seeds of ``drawn_instance`` whose ruins leave a trip over the shift:
# costs drawn apart from each other need not obey the triangle
# inequality, so cutting stops out of a trip can lengthen it. Found by
# search over seeds 0-2999 (12 such instances); these are the three that
# solve to another plan without the skip, seed 1958 to one that breaks
# the shift.
SHIFT_BREAKING_RUINS = (1958, 2156, 2434)


def drawn_instance(seed: int):
    """``random_instance`` with 7-14 stops and the rest drawn from ``seed``."""
    rng = random.Random(seed)
    return random_instance(seed, rng.randint(7, 14), rng.randint(1, 8),
                           rng.choice(network.METRICS),
                           rng.choice(("tenths", "eps", "uniform")))


@pytest.mark.parametrize("seed", SHIFT_BREAKING_RUINS)
def test_a_ruin_that_leaves_a_trip_over_the_shift_is_skipped(seed):
    ctx, _, matrix = drawn_instance(seed)
    ref = fresh_reference(ctx, matrix)
    skipped = []
    expected = _pack_plan(ref, reference_solve(ref, seed % 7, skipped))
    assert skipped, "no ruin of this instance leaves a trip over the shift"
    plan = vrp.solve_vrp(matrix, list(ctx.stops.values()), ctx.depot, ctx.fleet,
                         seed=seed % 7)
    assert plan == expected
    vrp.verify_plan(plan, matrix, ctx.fleet)


def shift_with_limit(target: float) -> float:
    """A shift whose ``shift_s + _EPS`` rounds to exactly ``target``."""
    shift = target - vrp._EPS
    while shift + vrp._EPS < target:
        shift = math.nextafter(shift, math.inf)
    while shift + vrp._EPS > target:
        shift = math.nextafter(shift, -math.inf)
    assert shift + vrp._EPS == target
    return shift


# Times in tenths of a second (t_01, t_10, t_12, t_20, service 1,
# service 2, unload) whose sums round differently in different orders.
# Trip [1, 2] must fit a shift that ends exactly at its duration summed
# in full (``_Ctx.duration``) and miss one that ends a float before it.
# Its duration taken as trip [1]'s plus the change of inserting stop 2
# differs in the last bits: above the full sum for the first row and
# more than one float below it for the second, so a construction that
# decided by that sum would get one verdict of each row wrong.
ROUNDING_APART = [(3, 2, 5, 2, 8, 7, 4), (9, 6, 3, 7, 8, 8, 3)]


@pytest.mark.parametrize("objective", network.METRICS)
@pytest.mark.parametrize("tenths", ROUNDING_APART)
@pytest.mark.parametrize("fits", [True, False])
def test_insertion_at_the_shift_limit_gets_the_full_sum_verdict(objective, tenths,
                                                                fits):
    t01, t10, t12, t20, s1, s2, unload = (k * 0.1 for k in tenths)
    # inserting 2 before 1 costs more and takes far longer
    time_s = ((0.0, t01, 0.1), (t10, 0.0, t12), (t20, 9.0, 0.0))
    length_m = tuple(tuple(100 * t for t in line) for line in time_s)
    matrix = CostMatrix(origins=(0, 1, 2), destinations=(0, 1, 2),
                        metric=objective, length_m=length_m, time_s=time_s)
    stops = [make_stop(1, 1, 1.0, service_s=s1), make_stop(2, 2, 1.0, service_s=s2)]
    probe = _Ctx(matrix, stops, 0, FleetSpec(unload_s=unload))
    merged = probe.duration([1, 2])
    # the shift ends exactly at the merged trip's end, or one float before it
    target = merged if fits else math.nextafter(merged, -math.inf)
    fleet = FleetSpec(unload_s=unload, shift_s=shift_with_limit(target))
    ctx = _Ctx(matrix, stops, 0, fleet)
    _validate_instance(ctx)
    expected = [[1, 2]] if fits else [[1], [2]]
    assert insertion_reference(full_recompute(ctx, matrix), [1, 2]) == expected
    assert _cheapest_insertion_seqs(ctx, [1, 2]) == expected


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(1, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
)
def test_index_construction_matches_the_node_id_reference(seed, n_stops, n_nodes,
                                                          objective, style):
    ctx, ids, matrix = random_instance(seed, n_stops, n_nodes, objective, style)
    ref = full_recompute(ctx, matrix)
    assert _clarke_wright_seqs(ctx) == savings_reference(ref)
    rng = random.Random(seed)
    for _ in range(3):
        order = ids[:]
        rng.shuffle(order)
        assert _cheapest_insertion_seqs(ctx, order) == insertion_reference(ref, order)


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(2, 12),
    n_nodes=st.integers(1, 8),
    objective=st.sampled_from(network.METRICS),
    style=st.sampled_from(("tenths", "eps", "uniform")),
    start=st.sampled_from(("savings", "insertion", "chunks")),
)
def test_insertion_into_a_partial_plan_matches_the_node_id_reference(
        seed, n_stops, n_nodes, objective, style, start):
    # a ruin's leftovers: some trips cut, some emptied, the rest whole
    ctx, ids, matrix = random_instance(seed, n_stops, n_nodes, objective, style)
    rng = random.Random(seed)
    seqs = starting_seqs(ctx, ids, rng, start)
    removed = rng.sample(ids, rng.randint(1, len(ids) - 1))
    kept = [[s for s in seq if s not in removed] for seq in seqs]
    assert any(kept)
    expected = insertion_reference(full_recompute(ctx, matrix), removed, kept)
    assert _cheapest_insertion_seqs(ctx, removed, kept) == expected
    assert sorted(s for seq in expected for s in seq) == sorted(ids)


def shift_rejections(ref: _Ctx, order: list[int]) -> int:
    """Stops of ``order`` that the reference construction puts into an
    existing trip although its cheapest position within capacity fails
    the shift check, so a dearer position takes it."""
    count = 0
    for k, sid in enumerate(order):
        before = insertion_reference(ref, order[:k])
        if len(insertion_reference(ref, order[:k + 1])) > len(before):
            continue  # the stop opened a trip
        node = ref.node_of[sid]
        positions = []
        for ti, seq in enumerate(before):
            if not ref.load_ok(seq + [sid]):
                continue
            nodes = [ref.depot] + [ref.node_of[s] for s in seq] + [ref.depot]
            positions += ((ref.c(a, node) + ref.c(node, b) - ref.c(a, b), ti, pos)
                          for pos, (a, b) in enumerate(zip(nodes, nodes[1:])))
        _, ti, pos = min(positions)
        count += not ref.shift_ok(before[ti][:pos] + [sid] + before[ti][pos:])
    return count


def test_index_construction_skips_a_cheaper_position_the_shift_rejects():
    # the differential above, on seeded draws, counting the stops whose
    # cheapest position within capacity fails shift_ok: each must go to
    # the next cheapest that passes, as in the reference
    rejected = 0
    for seed in range(1000):
        rng = random.Random(seed)
        ctx, ids, matrix = random_instance(
            seed, rng.randint(2, 12), rng.randint(1, 8),
            rng.choice(network.METRICS), rng.choice(("tenths", "eps", "uniform")))
        ref = full_recompute(ctx, matrix)
        rng.shuffle(ids)
        assert _cheapest_insertion_seqs(ctx, ids) == insertion_reference(ref, ids)
        rejected += shift_rejections(ref, ids)
    assert rejected >= 100


@pytest.mark.parametrize("objective", network.METRICS)
def test_construction_checks_the_shift_once_per_stop_a_loose_shift_admits(
        objective, monkeypatch):
    nodes, edges, buildings = gen_synthetic_city(
        SyntheticCitySpec(seed=3, grid_x=5, grid_y=5))
    net = network.RoadNetwork(nodes, edges)
    depot = network.snap(net, (0.0, 0.0), 1000.0)
    stops = place_stops(net, aggregate_demand(buildings, 2.49), CoverageConfig())
    matrix_nodes = sorted({depot} | {s.node for s in stops})
    matrix = network.cost_matrix(net, matrix_nodes, matrix_nodes, objective)
    ctx = _Ctx(matrix, stops, depot, FleetSpec(capacity_kg=1500.0))
    _validate_instance(ctx)
    calls = []
    shift_ok = ctx.shift_ok
    monkeypatch.setattr(ctx, "shift_ok", lambda seq: calls.append(seq) or shift_ok(seq))
    order = sorted(ctx.stops)
    random.Random(5).shuffle(order)
    seqs = _cheapest_insertion_seqs(ctx, order)
    # capacity alone splits the trips, and each would fit the shift twice
    assert len(seqs) > 1
    assert all(2 * ctx.duration(seq) <= ctx.fleet.shift_s for seq in seqs)
    # so the cheapest position within capacity always passes: one check per
    # stop that joins a trip, none for a stop that opens one
    assert len(calls) == len(order) - len(seqs)
    assert all(shift_ok(seq) for seq in calls)


@pytest.mark.parametrize("objective", network.METRICS)
def test_delta_descent_matches_full_recompute_on_a_grid_city(objective):
    # integer block costs: many moves tie exactly, so zero deltas abound
    nodes, edges, buildings = gen_synthetic_city(
        SyntheticCitySpec(seed=3, grid_x=5, grid_y=5))
    net = network.RoadNetwork(nodes, edges)
    depot = network.snap(net, (0.0, 0.0), 1000.0)
    stops = place_stops(net, aggregate_demand(buildings, 2.49), CoverageConfig())
    matrix_nodes = sorted({depot} | {s.node for s in stops})
    matrix = network.cost_matrix(net, matrix_nodes, matrix_nodes, objective)
    ctx = _Ctx(matrix, stops, depot, FleetSpec(capacity_kg=1500.0))
    _validate_instance(ctx)
    ids = sorted(ctx.stops)
    ref = full_recompute(ctx, matrix)
    # tied savings and insertion costs must break as in the reference
    assert _clarke_wright_seqs(ctx) == savings_reference(ref)
    assert _cheapest_insertion_seqs(ctx, ids) == insertion_reference(ref, ids)
    for start in ("savings", "insertion", "chunks"):
        seqs = starting_seqs(ctx, ids, random.Random(7), start)
        expected = improve_seqs_reference(ref, seqs, 10_000)
        assert _improve_seqs(ctx, seqs, 10_000) == expected


def close(delta: float, recomputed: float, scale: float) -> bool:
    return math.isclose(delta, recomputed, rel_tol=1e-9, abs_tol=1e-9 * scale)


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stops=st.integers(2, 10),
    style=st.sampled_from(("tenths", "eps", "uniform")),
)
def test_move_deltas_equal_recomputed_cost_differences(seed, n_stops, style):
    ctx, ids, matrix = random_instance(seed, n_stops, 9, "time", style)
    rng = random.Random(seed)
    rng.shuffle(ids)
    cut = rng.randint(1, len(ids) - 1)
    seq_a, seq_b = ids[:cut], ids[cut:]
    cost = ctx.cost
    idx, legs = ctx.tour(seq_a)
    cost_a, cost_b = ctx.drive_cost(seq_a), ctx.drive_cost(seq_b)
    scale = cost_a + cost_b
    assert cost_a == full_recompute(ctx, matrix).drive_cost(seq_a)

    flip = _flip_prefix(cost, idx, legs)
    for i in range(len(seq_a) - 1):
        deltas = _reversal_deltas(cost, idx, legs, flip, i)
        assert len(deltas) == len(seq_a) - 1 - i
        for j, delta in enumerate(deltas, start=i + 1):
            cand = seq_a[:i] + seq_a[i:j + 1][::-1] + seq_a[j + 1:]
            assert close(delta, ctx.drive_cost(cand) - cost_a, scale)

    idx_b, legs_b = ctx.tour(seq_b)
    for seg_len in (1, 2):
        for p in range(len(seq_a) - seg_len + 1):
            seg = seq_a[p:p + seg_len]
            rest = seq_a[:p] + seq_a[p + seg_len:]
            removal = _removal_delta(cost, idx, legs, p, seg_len)
            first, from_last = idx[p + 1], cost[idx[p + seg_len]]
            cost_rest = ctx.drive_cost(rest) if rest else 0.0
            deltas = _insertion_deltas(cost, idx_b, legs_b, first, from_last,
                                       removal)
            assert len(deltas) == len(seq_b) + 1
            for q, delta in enumerate(deltas):
                cand_b = seq_b[:q] + seg + seq_b[q:]
                recomputed = cost_rest + ctx.drive_cost(cand_b) - cost_a - cost_b
                assert close(delta, recomputed, scale)
            if not rest:
                continue
            rest_tour = _without(cost, idx, legs, p, seg_len)
            assert rest_tour == ctx.tour(rest)
            deltas = _insertion_deltas(cost, *rest_tour, first, from_last,
                                       removal)
            for q, delta in enumerate(deltas):
                cand = rest[:q] + seg + rest[q:]
                assert close(delta, ctx.drive_cost(cand) - cost_a, scale)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_nan_or_negative_cost_is_rejected(bad):
    time_s = ((0.0, 10.0), (bad, 0.0))
    matrix = CostMatrix(origins=(0, 1), destinations=(0, 1), metric="time",
                        length_m=time_s, time_s=time_s)
    with pytest.raises(ValueError, match="from node 1 to node 0"):
        vrp.solve_vrp(matrix, [make_stop(1, 1, 100.0)], 0, FleetSpec())


@pytest.mark.parametrize("bad", [math.nan, -5.0])
def test_nan_or_negative_demand_is_rejected(bad):
    time_s = ((0.0, 10.0), (10.0, 0.0))
    matrix = CostMatrix(origins=(0, 1), destinations=(0, 1), metric="time",
                        length_m=time_s, time_s=time_s)
    with pytest.raises(ValueError, match="stop 1 demand"):
        vrp.solve_vrp(matrix, [make_stop(1, 1, bad)], 0, FleetSpec())
