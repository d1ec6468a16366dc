"""Radius-bounded, grid-snapped coverage against the full reference.

``mswplan.coverage`` snaps through a bucket grid, stops each
candidate's search at the service radius and keeps only in-radius
distances. These tests hold it to the verbatim full-scan, unbounded
code in ``coverage_reference.py`` on random cities built to stress it:
radii at exact multiples of the block length (so distances land exactly
on the radius), one-way streets, edges longer than the block, parts of
the network no search reaches, zero-unit and overweight buildings,
buildings off the network, candidate subsets, and both distance modes.
The greedy's lazily refreshed gains are held to the reference's full
re-sums on cities where zero-mass demands are left last and load-cap
leftovers reopen stops at the same node.
"""

import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverage_reference as ref
from mswplan import coverage
from mswplan.coverage import (
    _RADIUS_TOL_M,
    CoverageConfig,
    DemandPoint,
    StopPoint,
    _stop_distances,
    aggregate_demand,
    place_stops,
    verify_coverage,
)
from mswplan.errors import PlannerError
from mswplan.network import Edge, Node, RoadNetwork
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city

DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True,
                        database=None)


def random_city(rng: random.Random):
    """(network, building rows, block length) on a perturbed grid."""
    block = rng.choice((50.0, 100.0, 137.5))
    gx, gy = rng.randint(1, 5), rng.randint(1, 4)
    ox, oy = rng.choice((0.0, -310.0)), rng.choice((0.0, 75.0))
    nid = {(ix, iy): iy * (gx + 1) + ix
           for iy in range(gy + 1) for ix in range(gx + 1)}
    xy = {n: (ox + ix * block, oy + iy * block) for (ix, iy), n in nid.items()}
    edges = []
    for (ix, iy), a in nid.items():
        for b in (nid.get((ix + 1, iy)), nid.get((ix, iy + 1))):
            if b is None or rng.random() < 0.1:
                continue  # a missing street
            length = block if rng.random() < 0.6 else block * rng.choice(
                (1.5, 2.0, rng.uniform(1.0, 3.0)))
            kind = rng.random()
            if kind > 0.25 or kind < 0.125:
                edges.append(Edge(a, b, length, 40.0))
            if kind > 0.125:
                edges.append(Edge(b, a, length, 30.0))
    # an island two streets long that no grid node reaches
    island = [len(nid) + k for k in range(3)]
    for k, n in enumerate(island):
        xy[n] = (ox + (gx + 4 + k) * block, oy)
    edges += [Edge(island[0], island[1], block, 40.0),
              Edge(island[1], island[2], block, 40.0)]
    net = RoadNetwork([Node(n, x, y) for n, (x, y) in xy.items()], edges)

    rows = []
    points = list(xy.values())
    for bid in range(rng.randint(1, 30)):
        where = rng.random()
        if where < 0.25:  # on a node
            x, y = rng.choice(points)
        elif where < 0.45:  # halfway along a block: a snap tie
            x, y = rng.choice(points)
            if rng.random() < 0.5:
                x += block / 2
            else:
                y += block / 2
        elif where < 0.99:  # near a node
            x, y = rng.choice(points)
            x += rng.uniform(-0.35, 0.35) * block
            y += rng.uniform(-0.35, 0.35) * block
        else:  # off the network
            x, y = ox - 20 * block, oy + rng.uniform(-5, 5) * block
        units = 500 if rng.random() < 0.03 else rng.choice(
            (0, rng.randint(1, 30), rng.randint(1, 30)))
        rows.append((bid, x, y, units))
    rng.shuffle(rows)
    return net, rows, block


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def shuffled_stops(rng, stops, demands, net) -> list[StopPoint]:
    """Stops moved to other nodes, emptied, or listing unknown demands."""
    out = []
    ids = [d.id for d in demands] + [10_000]
    for s in stops or [StopPoint(0, net.node_ids[0], 0.0, 60.0, [])]:
        node = rng.choice(net.node_ids) if rng.random() < 0.4 else s.node
        covered = (s.covered_demand_ids if rng.random() < 0.6
                   else rng.sample(ids, rng.randint(0, len(ids))))
        out.append(StopPoint(s.id, node, s.assigned_demand_kg, s.service_time_s,
                             list(covered)))
    return out


def consistent_stops(stops, demands) -> list[StopPoint]:
    """The stops without unknown demand ids or a listing of a demand after
    its first, each load the mass of the demands it lists, so an audit gets
    past its input checks."""
    mass = {d.id: d.waste_kg_day for d in demands}
    out, listed = [], set()
    for s in stops:
        covered = []
        for i in s.covered_demand_ids:
            if i in mass and i not in listed:
                covered.append(i)
                listed.add(i)
        out.append(StopPoint(s.id, s.node, math.fsum(mass[i] for i in covered),
                             s.service_time_s, covered))
    return out


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(("network", "euclidean")),
    blocks=st.sampled_from((None, 0.5, 1, 2, 3)),
    subset=st.booleans(),
)
def test_bounded_coverage_matches_the_full_reference(seed, mode, blocks, subset):
    rng = random.Random(seed)
    net, rows, block = random_city(rng)
    radius = rng.uniform(10.0, 400.0) if blocks is None else blocks * block
    candidates = None
    if subset:
        candidates = tuple(rng.sample(net.node_ids,
                                      rng.randint(1, net.n_nodes)))
    cfg = CoverageConfig(radius_m=radius, distance_mode=mode,
                         max_stop_load_kg=rng.choice((100.0, 300.0, 520.0)),
                         candidate_nodes=candidates)
    demands = aggregate_demand(rows, 2.49)

    nodes = sorted(candidates or net.node_ids)
    dense = outcome(ref._stop_distances, net, demands, cfg, nodes)
    sparse = outcome(_stop_distances, net, demands, cfg, nodes)
    if isinstance(dense, dict):
        reach = cfg.radius_m + _RADIUS_TOL_M
        dense = {c: [(i, m) for i, m in row.items() if m <= reach]
                 for c, row in dense.items()}
    if isinstance(sparse[0], list):
        # per candidate, its input positions mapped back to demand ids
        radius, meters = sparse
        sparse = {c: [(demands[p].id, m) for p, m in zip(ps, ms)]
                  for c, ps, ms in zip(nodes, radius, meters)}
    assert sparse == dense

    expected = outcome(ref.place_stops, net, demands, cfg)
    assert outcome(place_stops, net, demands, cfg) == expected
    stops = expected if isinstance(expected, list) else []
    shuffled = shuffled_stops(rng, stops, demands, net)
    for audited in (stops, shuffled, consistent_stops(shuffled, demands)):
        assert (outcome(verify_coverage, audited, demands, net, cfg)
                == outcome(ref.verify_coverage, audited, demands, net, cfg))


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_bounded_coverage_matches_the_reference_on_synthetic_cities(mode):
    for seed in range(20):
        spec = SyntheticCitySpec(seed=seed, grid_x=2 + seed % 4,
                                 grid_y=2 + seed // 4 % 3,
                                 buildings_per_block=1 + seed % 5)
        nodes, edges, buildings = gen_synthetic_city(spec)
        net = RoadNetwork(nodes, edges)
        demands = aggregate_demand(buildings, 2.49)
        # 200 m blocks: 400 m puts whole streets exactly on the radius
        for radius in (200.0, 300.0, 400.0):
            cfg = CoverageConfig(radius_m=radius, distance_mode=mode)
            stops = place_stops(net, demands, cfg)
            assert stops == ref.place_stops(net, demands, cfg)
            assert (verify_coverage(stops, demands, net, cfg)
                    == ref.verify_coverage(stops, demands, net, cfg))


def place_stops_in_time(net, demands, cfg, seconds: float = 20.0):
    """``place_stops``, failing with TimeoutError after ``seconds``.

    Each round must cover a demand; a gain left stale makes the greedy
    reopen a stop that covers nothing, forever, so a fault in the gain
    cache fails here instead of hanging the suite.
    """
    def expire(signum, frame):
        raise TimeoutError(f"place_stops ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return place_stops(net, demands, cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def line_city(n: int):
    """``n`` nodes 100 m apart on a two-way street along the x axis."""
    nodes = [Node(i, 100.0 * i, 0.0) for i in range(n)]
    edges = [Edge(a, b, 100.0, 40.0) for i in range(n - 1)
             for a, b in ((i, i + 1), (i + 1, i))]
    return RoadNetwork(nodes, edges)


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_cached_gains_open_the_zero_mass_leftovers_by_candidate_id(mode):
    net = line_city(5)
    # after demand 1 is taken every gain is 0: the rest open by fallback
    demands = aggregate_demand([(1, 0.0, 0.0, 10), (2, 200.0, 0.0, 0),
                                (3, 400.0, 0.0, 0)], 2.49)
    cfg = CoverageConfig(radius_m=150.0, distance_mode=mode)
    stops = place_stops_in_time(net, demands, cfg)
    assert stops == ref.place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in stops] == [
        (0, [1]), (1, [2]), (3, [3])]


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_cached_gains_reopen_a_stop_at_the_same_node_for_a_leftover(mode):
    net = line_city(3)
    # five 99.6 kg demands on node 0 and a 149.4 kg one on node 2 under a
    # 250 kg cap: node 1 covers all six and opens first; the four left on
    # node 0 then tie between nodes 0 and 1, and node 0 opens twice
    rows = [(0, 200.0, 0.0, 60)] + [(i, 0.0, 0.0, 40) for i in range(1, 6)]
    demands = aggregate_demand(rows, 2.49)
    cfg = CoverageConfig(radius_m=150.0, distance_mode=mode,
                         max_stop_load_kg=250.0)
    stops = place_stops_in_time(net, demands, cfg)
    assert stops == ref.place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in stops] == [
        (1, [0, 1]), (0, [2, 3]), (0, [4, 5])]


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_cached_gains_sum_the_demands_left_in_input_order(mode):
    # node 1 opens first and takes demands 7 and 8. Demand 7 is the one
    # nodes 0 and 2 share, so both re-sum what is left: node 2 demands 1-3
    # (0.1 + 0.2 + 0.3 kg, 0.6000000000000001 in input order) and node 0
    # demands 4-6 (0.3 + 0.2 + 0.1 kg, 0.6). Node 2 opens before node 0;
    # summed in reverse, node 0 would open first
    nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0), Node(2, 200.0, 0.0),
             Node(3, 100.0, 100.0)]
    edges = [Edge(0, 1, 100.0, 40.0), Edge(2, 1, 100.0, 40.0),
             Edge(1, 3, 100.0, 40.0)]
    net = RoadNetwork(nodes, edges)
    demands = [DemandPoint(i, x, 0.0, 1, kg) for i, x, kg in (
        (1, 250.0, 0.1), (2, 250.0, 0.2), (3, 250.0, 0.3),
        (4, -50.0, 0.3), (5, -50.0, 0.2), (6, -50.0, 0.1), (7, 100.0, 1.0))]
    demands.append(DemandPoint(8, 100.0, 100.0, 1, 5.0))
    cfg = CoverageConfig(radius_m=100.0, distance_mode=mode)
    stops = place_stops_in_time(net, demands, cfg)
    assert stops == ref.place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in stops] == [
        (1, [7, 8]), (2, [1, 2, 3]), (0, [4, 5, 6])]


def test_float_sum_rounds_left_to_right_as_the_lazy_heap_bound_assumes():
    # place_stops keys each candidate by sum() of its masses and proves a key
    # bounds its gain only for a sum that rounds after each addition, left
    # to right; a compensated sum gives 1.0 here
    assert sum([1e16, 1.0, -1e16]) == 0.0, (
        "sum() of floats is compensated on this Python (CPython 3.12 and "
        "later): the lazy heap's bound argument in place_stops, that a "
        "left-to-right sum of an in-order subset of the masses never exceeds "
        "the sum of them all, does not cover it, and plans may differ from "
        "CPython 3.11's")


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_lazy_heap_opens_a_refreshed_candidate_before_a_later_tie(mode):
    # candidates 1, 3 and 7 cover the nodes 100 m either side. Node 3 opens
    # first (20 kg) and takes demands 2 and 3; node 1 shares demand 2, so
    # its 14 kg key goes stale. Re-summed it is 4 kg, the gain of node 7,
    # which nothing touched, and the scan of every gain opens node 1 first
    net = line_city(9)
    demands = [DemandPoint(i, x, 0.0, 1, kg) for i, x, kg in (
        (1, 0.0, 4.0), (2, 200.0, 10.0), (3, 400.0, 10.0), (4, 700.0, 4.0))]
    cfg = CoverageConfig(radius_m=100.0, distance_mode=mode,
                         candidate_nodes=(1, 3, 7))
    stops = place_stops_in_time(net, demands, cfg)
    assert stops == ref.place_stops(net, demands, cfg)
    assert [(s.node, s.covered_demand_ids) for s in stops] == [
        (3, [2, 3]), (1, [1]), (7, [4])]


@pytest.mark.parametrize("mode", ["network", "euclidean"])
def test_a_round_that_takes_no_demand_raises(mode, monkeypatch):
    net = line_city(3)
    # only node 2 covers the demand, and its NaN mass passes neither the
    # load cap nor the overweight test, so node 2's round takes nothing;
    # the input check that rejects a NaN mass is patched out to get there
    monkeypatch.setattr(coverage, "_demand_positions",
                        lambda demands: {d.id: p for p, d in enumerate(demands)})
    demands = [DemandPoint(1, 200.0, 0.0, 10, math.nan)]
    cfg = CoverageConfig(radius_m=50.0, distance_mode=mode)
    with pytest.raises(PlannerError, match="node 2 covers no uncovered demand"):
        place_stops_in_time(net, demands, cfg)


@DIFFERENTIAL
@given(seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(("network", "euclidean")))
def test_cached_gains_match_the_reference_with_zero_mass_and_leftovers(seed,
                                                                      mode):
    rng = random.Random(seed)
    net, rows, block = random_city(rng)
    # mostly zero-mass demands, and caps that leave leftovers at a node
    rows = [(bid, x, y, rng.choice((0, 0, 0, 20, 40))) for bid, x, y, _ in rows]
    demands = aggregate_demand(rows, 2.49)
    cfg = CoverageConfig(radius_m=rng.choice((1, 1.5, 2)) * block,
                         distance_mode=mode,
                         max_stop_load_kg=rng.choice((50.0, 100.0, 150.0)))
    assert (outcome(place_stops_in_time, net, demands, cfg)
            == outcome(ref.place_stops, net, demands, cfg))
