import math
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_reference import snap as reference_snap
from helpers import (min_cost_by_enumeration, random_graph, turn_rows,
                     uturn_and_bend_penalties)
from mswplan.coverage import (BUILDING_HEADER, STOP_HEADER, DemandPoint, load_buildings,
                              load_stops)
from mswplan.errors import DataError, NoNodeWithinRange, UnknownNode, Unreachable
from mswplan.impact import FACTOR_HEADER, load_factors
from mswplan.network import (
    _SNAP_TIE_M,
    EDGE_HEADER,
    METRICS,
    NODE_HEADER,
    TURN_HEADER,
    UNREACHABLE,
    CostMatrix,
    Edge,
    Node,
    RoadNetwork,
    cost_matrix,
    load_edges,
    load_network,
    load_nodes,
    shortest_path,
    snap,
    write_edges,
    write_nodes,
    _search,
)
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city


def triangle() -> RoadNetwork:
    nodes = [Node(1, 0, 0), Node(2, 1200, 0), Node(3, 2000, 0)]
    edges = [Edge(1, 2, 1200, 40), Edge(2, 3, 800, 40), Edge(1, 3, 2500, 40)]
    return RoadNetwork(nodes, edges)


def test_edge_travel_time_matches_length_over_speed():
    e = Edge(1, 2, 1000, 40)
    assert e.travel_time_s == pytest.approx(1000 * 3.6 / 40, rel=1e-9)
    assert e.travel_time_s == pytest.approx(90.0, rel=1e-9)


RECORDS = [
    (Node(1, 2.0, 3.0), "Node(id=1, x_m=2.0, y_m=3.0)"),
    (Edge(0, 1, 200.0, 40.0), "Edge(from_id=0, to_id=1, length_m=200.0, speed_kmh=40.0)"),
    (DemandPoint(7, 1.5, 2.5, 8, 9.6),
     "DemandPoint(id=7, x_m=1.5, y_m=2.5, dwelling_units=8, waste_kg_day=9.6)"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_hashable_named_tuples(record, text):
    assert repr(record) == text
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.note = "no attribute beyond the fields"
    same = type(record)(*record)
    assert same == record and hash(same) == hash(record)
    assert {same: "found"}[record] == "found"
    # a record is the tuple of its fields: equal to it, unpacked and sorted as it
    assert record == tuple(getattr(record, name) for name in record._fields)
    first, *_ = record
    assert first == record[0] == getattr(record, record._fields[0])
    assert sorted([record._replace(**{record._fields[0]: 9}), record])[0] is record


def test_single_edge_path():
    net = RoadNetwork([Node(1, 0, 0), Node(2, 1000, 0)], [Edge(1, 2, 1000, 40)])
    path, cost = shortest_path(net, 1, 2, "time")
    assert path == [1, 2]
    assert cost == pytest.approx(90.0)


def test_two_hop_beats_direct_edge():
    net = triangle()
    path, cost = shortest_path(net, 1, 3, "time")
    oracle = min_cost_by_enumeration(net, 1, 3, "time")
    assert path == [1, 2, 3]
    assert cost == oracle
    assert cost == pytest.approx(108.0 + 72.0)


def test_no_reverse_edges_is_unreachable():
    with pytest.raises(Unreachable):
        shortest_path(triangle(), 3, 1, "time")


def test_unknown_node_rejected():
    with pytest.raises(UnknownNode):
        shortest_path(triangle(), 1, 99, "time")
    with pytest.raises(UnknownNode):
        shortest_path(triangle(), 99, 1, "time")
    with pytest.raises(UnknownNode):
        cost_matrix(triangle(), [1, 99], [1], "time")


@pytest.mark.parametrize("origins", [[1], []])
def test_unknown_metric_rejected(origins):
    with pytest.raises(ValueError, match="metric must be one of"):
        cost_matrix(triangle(), origins, [1], "hops")


def test_equal_cost_tie_prefers_smaller_node_id():
    # two equal branches 1->2->4 and 1->3->4
    nodes = [Node(i, 0, 0) for i in (1, 2, 3, 4)]
    edges = [Edge(1, 2, 500, 40), Edge(1, 3, 500, 40),
             Edge(2, 4, 500, 40), Edge(3, 4, 500, 40)]
    net = RoadNetwork(nodes, edges)
    path, _ = shortest_path(net, 1, 4, "time")
    assert path == [1, 2, 4]


def test_self_matrix_is_zero():
    net = triangle()
    m = cost_matrix(net, [1], [1], "time")
    assert m.cost == ((0.0,),)


def test_matrix_row_matches_pairwise_enumeration():
    net = triangle()
    m = cost_matrix(net, [1, 2, 3], [1, 2, 3], "time")
    assert m.cost[0] == (0.0, 108.0, 180.0)
    for i, o in enumerate(m.origins):
        for j, d in enumerate(m.destinations):
            oracle = min_cost_by_enumeration(net, o, d, "time")
            if oracle is None:
                assert m.cost[i][j] == UNREACHABLE
            else:
                assert m.cost[i][j] == oracle


def test_unreachable_pair_is_marked_not_zero():
    m = cost_matrix(triangle(), [3], [1], "time")
    assert m.cost[0][0] == UNREACHABLE
    assert math.isinf(m.cost[0][0])


def test_matrix_cost_is_the_metric_table():
    for metric, table in (("time", "time_s"), ("distance", "length_m")):
        m = cost_matrix(triangle(), [1, 2, 3], [1, 2, 3], metric)
        assert m.cost is getattr(m, table)


def test_matrix_entries_match_individual_path_calls():
    rng = random.Random(4821)
    for _ in range(25):
        net = random_graph(rng)
        ids = net.node_ids
        m = cost_matrix(net, ids, ids, "distance")
        for i, o in enumerate(ids):
            for j, d in enumerate(ids):
                if m.cost[i][j] == UNREACHABLE:
                    with pytest.raises(Unreachable):
                        shortest_path(net, o, d, "distance")
                else:
                    _, c = shortest_path(net, o, d, "distance")
                    assert c == m.cost[i][j]


def test_search_matches_enumeration_on_random_graphs():
    rng = random.Random(20260808)
    for _ in range(60):
        net = random_graph(rng)
        ids = net.node_ids
        source = ids[0]
        for metric in ("time", "distance"):
            m = cost_matrix(net, [source], ids, metric)
            for j, target in enumerate(ids):
                oracle = min_cost_by_enumeration(net, source, target, metric)
                if oracle is None:
                    assert m.cost[0][j] == UNREACHABLE
                else:
                    assert m.cost[0][j] == oracle


def test_identical_inputs_give_identical_paths():
    rng = random.Random(7)
    for _ in range(10):
        net = random_graph(rng)
        ids = net.node_ids
        first = [shortest_path(net, ids[0], t, "time")
                 for t in ids if min_cost_by_enumeration(net, ids[0], t, "time") is not None]
        second = [shortest_path(net, ids[0], t, "time")
                  for t in ids if min_cost_by_enumeration(net, ids[0], t, "time") is not None]
        assert first == second


def test_turn_penalty_adds_to_time_cost_only():
    nodes = [Node(1, 0, 0), Node(2, 1000, 0), Node(3, 2000, 0)]
    edges = [Edge(1, 2, 1000, 40), Edge(2, 3, 1000, 40)]
    plain = RoadNetwork(nodes, edges)
    tolled = RoadNetwork(nodes, edges, [(0, 1, 30.0)])
    _, t0 = shortest_path(plain, 1, 3, "time")
    _, t1 = shortest_path(tolled, 1, 3, "time")
    assert t1 == pytest.approx(t0 + 30.0)
    _, d0 = shortest_path(plain, 1, 3, "distance")
    _, d1 = shortest_path(tolled, 1, 3, "distance")
    assert d1 == d0


def test_penalized_turn_reroutes_through_other_approach():
    # two ways into node 2; the fast approach has a penalized turn onto 2->3
    nodes = [Node(1, 0, 0), Node(2, 1000, 0), Node(3, 2000, 0)]
    edges = [
        Edge(1, 2, 1000, 60),  # edge 0: fast approach, 60 s
        Edge(1, 2, 1000, 40),  # edge 1: slow approach, 90 s
        Edge(2, 3, 1000, 40),  # edge 2
    ]
    net = RoadNetwork(nodes, edges, [(0, 2, 1000.0)])
    path, cost = shortest_path(net, 1, 3, "time")
    assert path == [1, 2, 3]
    # hand enumeration: via edge 0 = 60 + 1000 + 90; via edge 1 = 90 + 90
    assert cost == pytest.approx(180.0)


def with_random_turn_penalties(rng, net: RoadNetwork) -> RoadNetwork:
    """Same graph with a 0-120 s penalty on about 30% of its turns."""
    pens = {}
    for ei in range(len(net.edges)):
        for fi in range(len(net.edges)):
            if net.edges[ei].to_id == net.edges[fi].from_id and rng.random() < 0.3:
                pens[(ei, fi)] = rng.uniform(0, 120)
    return RoadNetwork([net.node(i) for i in net.node_ids], list(net.edges),
                       turn_rows(pens))


def test_adding_turn_penalties_never_reduces_time_costs():
    rng = random.Random(314)
    for _ in range(20):
        net = random_graph(rng, max_nodes=8, max_edges=18)
        tolled = with_random_turn_penalties(rng, net)
        ids = net.node_ids
        base = cost_matrix(net, ids, ids, "time")
        with_pens = cost_matrix(tolled, ids, ids, "time")
        for i in range(len(ids)):
            for j in range(len(ids)):
                assert with_pens.cost[i][j] >= base.cost[i][j] - 1e-9


@pytest.mark.parametrize("turns", [False, True], ids=["plain", "turns"])
def test_matrix_paths_equal_a_fresh_search_per_leg(turns):
    # the kept searches must give the path a separate search per leg finds
    rng = random.Random(8080 + turns)
    penalized = 0
    for _ in range(40):
        net = random_graph(rng)
        if turns:
            net = with_random_turn_penalties(rng, net)
            penalized += net.has_turn_penalties
        ids = net.node_ids
        for metric in METRICS:
            m = cost_matrix(net, ids, ids, metric)
            for i, a in enumerate(ids):
                fresh = _search(net, a, metric)
                for j, b in enumerate(ids):
                    if m.cost[i][j] == UNREACHABLE:
                        with pytest.raises(Unreachable):
                            m.path(a, b)
                    else:
                        assert m.path(a, b) == fresh.path_to(b)
    assert penalized >= 20 if turns else penalized == 0


def test_matrix_path_raises_unreachable_and_unknown_node():
    m = cost_matrix(triangle(), [1, 3], [1, 2], "time")
    assert m.path(1, 2) == [1, 2]
    assert m.path(1, 1) == [1]
    with pytest.raises(Unreachable):
        m.path(3, 1)
    with pytest.raises(UnknownNode):
        m.path(2, 1)  # 2 is in the network but not an origin
    with pytest.raises(UnknownNode):
        m.path(1, 3)  # 3 is in the network but not a destination
    with pytest.raises(UnknownNode):
        m.path(99, 1)
    hand = CostMatrix(m.origins, m.destinations, m.metric, m.length_m, m.time_s)
    assert hand == m and repr(hand) == repr(m)
    for a in hand.origins:
        for b in hand.destinations:
            with pytest.raises(UnknownNode):
                hand.path(a, b)


def test_snap_exact_hit_and_threshold():
    net = triangle()
    assert snap(net, (1200, 0), 10) == 2
    with pytest.raises(NoNodeWithinRange):
        snap(net, (1200, 600), 500)
    assert snap(net, (1200, 500), 500) == 2  # exactly at the limit is fine


def test_snap_tie_breaks_to_smaller_id():
    net = RoadNetwork(
        [Node(3, 0, 0), Node(7, 100, 0)], [Edge(3, 7, 100, 40)]
    )
    assert snap(net, (50, 0), 100) == 3


def scan_outcome(fn, net, point, max_dist_m):
    try:
        return fn(net, point, max_dist_m)
    except NoNodeWithinRange as exc:
        return NoNodeWithinRange, str(exc)


def layout_points(rng, layout: str) -> list[tuple[float, float]]:
    if layout == "one":
        return [(rng.uniform(-500, 500), rng.uniform(-500, 500))]
    n = rng.randint(2, 40)
    if layout == "lattice":  # exact ties and repeated coordinates
        return [(rng.randint(-4, 4) * 50.0, rng.randint(-3, 3) * 50.0)
                for _ in range(n)]
    if layout == "line":  # zero-height (or zero-width) bounding box
        flat = [(rng.randint(-20, 20) * 10.0, -7.5) for _ in range(n)]
        return flat if rng.random() < 0.5 else [(y, x) for x, y in flat]
    if layout == "strip":  # narrower than one cell: a grid one cell wide
        thin = [(rng.uniform(0, 2), rng.uniform(-900, 900)) for _ in range(n)]
        return thin if rng.random() < 0.5 else [(y, x) for x, y in thin]
    if layout == "stacked":  # a few points, each shared by several nodes
        spots = [(rng.uniform(-900, -100), rng.uniform(-900, -100))
                 for _ in range(3)]
        return [rng.choice(spots) for _ in range(n)]
    return [(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
            for _ in range(n)]


def border_query(rng, net: RoadNetwork) -> tuple[float, float]:
    """A point on a cell border of the network's snap grid, in or just
    outside it: one coordinate, or both, an exact multiple of the side."""
    grid = net._grid
    x = grid.x0 + rng.randint(-2, grid.nx + 1) * grid.side
    y = grid.y0 + rng.randint(-2, grid.ny + 1) * grid.side
    if rng.random() < 0.3:
        x += rng.uniform(0, grid.side)
    elif rng.random() < 0.4:
        y += rng.uniform(0, grid.side)
    return x, y


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(("scatter", "lattice", "line", "strip",
                               "stacked", "one")))
def test_grid_snap_matches_a_scan_of_every_node(seed, layout):
    rng = random.Random(seed)
    points = layout_points(rng, layout)
    ids = rng.sample(range(1000), len(points))
    net = RoadNetwork([Node(i, x, y) for i, (x, y) in zip(ids, points)], [])
    for _ in range(25):
        kind = rng.random()
        x, y = rng.choice(points)
        if kind < 0.15:
            query = (x, y)
        elif kind < 0.3:  # midway between two nodes
            x2, y2 = rng.choice(points)
            query = ((x + x2) / 2, (y + y2) / 2)
        elif kind < 0.45:
            query = border_query(rng, net)
        elif kind < 0.75:
            query = (x + rng.uniform(-300, 300), y + rng.uniform(-300, 300))
        elif kind < 0.85:  # just outside the bounding box
            query = rng.choice((
                (min(p[0] for p in points) - rng.uniform(0, 200), y),
                (x, max(p[1] for p in points) + rng.uniform(0, 200))))
        else:  # far outside the bounding box
            far = rng.choice((1e4, 1e6, 1e9))
            query = (x + far * rng.choice((-1, 1)), y + rng.uniform(-far, far))
        nearest = min(math.hypot(px - query[0], py - query[1])
                      for px, py in points)
        # the grid keeps its answer for the point after the first call;
        # each later call, a tighter limit included, must still see the limit
        for max_dist in (math.inf, nearest, math.nextafter(nearest, 0.0),
                         rng.uniform(0, 2 * nearest), math.inf):
            assert (scan_outcome(snap, net, query, max_dist)
                    == scan_outcome(reference_snap, net, query, max_dist))


def test_snapping_a_point_again_applies_the_new_limit():
    net = triangle()
    assert snap(net, (1200, 600), 1000) == 2
    with pytest.raises(NoNodeWithinRange, match="nearest node is 600.0 m away"):
        snap(net, (1200, 600), 599.0)
    with pytest.raises(ValueError, match="non-finite"):
        snap(net, (math.inf, 600), 1000)


def test_grid_snap_returns_ring_one_only_when_no_farther_node_can_win():
    # ten nodes on a 1000 m line: cells 100 m wide, one cell tall. The
    # point's cell (5) is empty, the node at 400 m in ring 1 is 222 m off,
    # and the node at 700 m in ring 2 is 141 m off, so it wins
    xs = (0, 50, 100, 150, 200, 250, 400, 700, 900, 1000)
    net = RoadNetwork([Node(i, float(x), 0.0) for i, x in enumerate(xs)], [])
    assert (net._grid.side, net._grid.nx, net._grid.ny) == (100.0, 11, 1)
    point = (599.0, 99.0)
    assert snap(net, point, 500.0) == reference_snap(net, point, 500.0) == 7


def test_grid_snap_picks_the_smaller_id_among_stacked_nodes():
    net = RoadNetwork([Node(9, -5.0, -5.0), Node(4, -5.0, -5.0),
                       Node(7, -5.0, -5.0)], [])
    assert snap(net, (-5.0, -5.0), 0.0) == 4
    assert snap(net, (1e7, -1e7), math.inf) == 4
    with pytest.raises(NoNodeWithinRange, match="nearest node is 5.0 m away"):
        snap(net, (-5.0, 0.0), 4.9)


def test_grid_snap_reads_a_tied_node_past_the_ring_it_stopped_at():
    # cells 5 m wide: node 5 sits in the point's cell, node 3 two cells
    # on, 8e-10 m farther; the tie reaches past the first ring's bound
    net = RoadNetwork([Node(5, 0.0, 0.0), Node(3, 10.0, 0.0)], [])
    point = (5.0 - 4e-10, 0.0)
    assert snap(net, point, 10.0) == reference_snap(net, point, 10.0) == 3


def test_snap_rejects_a_non_finite_point():
    with pytest.raises(ValueError, match="non-finite"):
        snap(triangle(), (math.nan, 0.0), 100.0)


def test_snap_rejects_a_nan_limit_and_a_negative_limit_snaps_nothing():
    # the point is 900 m from node 2; every `distance > NaN` test is false,
    # so without the check a NaN limit would let any distance through
    net = RoadNetwork([Node(1, 0.0, 0.0), Node(2, 100.0, 0.0)],
                      [Edge(1, 2, 100.0, 40.0)])
    with pytest.raises(ValueError, match="NaN"):
        snap(net, (1000.0, 0.0), math.nan)
    assert snap(net, (1000.0, 0.0), 900.0) == 2
    with pytest.raises(ValueError, match="NaN"):  # a kept answer too
        snap(net, (1000.0, 0.0), math.nan)
    with pytest.raises(ValueError, match="NaN"):
        net._grid.snap([(0.0, 0.0), (100.0, 0.0)], math.nan)
    with pytest.raises(NoNodeWithinRange, match="nearest node is 900.0 m away"):
        snap(net, (1000.0, 0.0), -1.0)
    with pytest.raises(NoNodeWithinRange, match="nearest node is 0.0 m away"):
        snap(net, (100.0, 0.0), -1e-300)


def test_snap_on_a_network_without_nodes_raises_unknown_node():
    net = RoadNetwork([], [])
    with pytest.raises(UnknownNode, match="no nodes"):
        snap(net, (0.0, 0.0), 100.0)
    assert net._grid.snap([], 100.0) == []


def scan_answer(net: RoadNetwork, point) -> tuple[float, int]:
    """(distance, node position) by measuring every node: the least
    ``math.hypot``, then the smallest position within ``_SNAP_TIE_M``."""
    px, py = point
    dists = [math.hypot(net.node(i).x_m - px, net.node(i).y_m - py)
             for i in net.node_ids]
    best = min(dists)
    return best, min(p for p, d in enumerate(dists) if d <= best + _SNAP_TIE_M)


def cloud(rng, layout: str) -> list[tuple[float, float]]:
    if layout == "clusters":  # tight clumps far apart: empty cells between
        centres = [(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000))
                   for _ in range(rng.randint(2, 4))]
        return [(cx + rng.uniform(-20, 20), cy + rng.uniform(-20, 20))
                for cx, cy in (rng.choice(centres)
                               for _ in range(rng.randint(4, 30)))]
    return layout_points(rng, layout)


def test_one_pass_snap_matches_a_scan_of_every_node_on_random_clouds():
    rng = random.Random(20)
    seen = dict.fromkeys(("outside", "border", "stacked", "tie", "ring 2"), 0)
    for _ in range(400):
        layout = rng.choice(("scatter", "lattice", "line", "strip", "stacked",
                             "one", "clusters"))
        coords = cloud(rng, layout)
        ids = rng.sample(range(1000), len(coords))
        net = RoadNetwork([Node(i, x, y) for i, (x, y) in zip(ids, coords)], [])
        grid = net._grid
        queries = []
        for _ in range(30):
            kind = rng.random()
            x, y = rng.choice(coords)
            if kind < 0.15:
                queries.append((x, y))
            elif kind < 0.3:  # midway between two nodes
                x2, y2 = rng.choice(coords)
                queries.append(((x + x2) / 2, (y + y2) / 2))
            elif kind < 0.45:
                queries.append(border_query(rng, net))
            elif kind < 0.8:
                queries.append((x + rng.uniform(-300, 300),
                                y + rng.uniform(-300, 300)))
            else:  # outside the bounding box, near or far
                far = rng.choice((100.0, 1e4, 1e7))
                queries.append((x + far * rng.choice((-1, 1)),
                                y + rng.uniform(-far, far)))
        queries += queries[:5]  # points met again read the kept answers
        want = [scan_answer(net, q) for q in queries]
        assert grid.snap(queries, math.inf) == [p for _, p in want]
        assert [grid._answers[q] for q in queries] == want
        assert [snap(net, q, math.inf) for q in queries] == [
            net.node_ids[p] for _, p in want]
        for (px, py), (best, p) in zip(queries, want):
            cx = int((px - grid.x0) // grid.side)
            cy = int((py - grid.y0) // grid.side)
            inside = 0 <= cx < grid.nx and 0 <= cy < grid.ny
            node = net.node(net.node_ids[p])
            ncx = int((node.x_m - grid.x0) // grid.side)
            ncy = int((node.y_m - grid.y0) // grid.side)
            seen["outside"] += not inside
            seen["border"] += ((px - grid.x0) % grid.side == 0
                               or (py - grid.y0) % grid.side == 0)
            seen["stacked"] += coords.count((node.x_m, node.y_m)) > 1
            seen["tie"] += sum(math.hypot(x - px, y - py) <= best + _SNAP_TIE_M
                               for x, y in coords) > 1
            seen["ring 2"] += inside and max(abs(ncx - cx), abs(ncy - cy)) >= 2
    assert min(seen.values()) >= 100, seen


def test_one_pass_snap_raises_for_the_first_failing_point_in_order():
    grid = triangle()._grid  # nodes at x = 0, 1200 and 2000 m
    far, bad = (0.0, 5000.0), (math.nan, 0.0)
    with pytest.raises(ValueError, match=re.escape("non-finite point (nan, 0.0)")):
        grid.snap([(0.0, 0.0), bad, far], 1000.0)
    for points, index in (([far, bad], 0), ([(10.0, 0.0), (5.0, 1.0), far,
                                             bad, (0.0, 6000.0)], 2)):
        with pytest.raises(NoNodeWithinRange, match="5000.0 m away") as err:
            grid.snap(points, 1000.0)
        assert err.value.index == index


@pytest.mark.parametrize("metric", ["time", "distance"])
def test_bounded_search_settles_exactly_the_nodes_within_the_bound(metric):
    rng = random.Random(23)
    for _ in range(60):
        net = random_graph(rng, max_nodes=12, max_edges=40)
        for source in net.node_ids:
            full = _search(net, source, metric)
            values = sorted(set(full.cost.values()))
            bounds = [0.0, math.inf, rng.choice(values),
                      rng.uniform(0.0, 2 * values[-1])]
            for bound in bounds:
                part = _search(net, source, metric, bound)
                settled = {n for n, c in part.cost.items() if c <= bound}
                assert settled == {n for n, c in full.cost.items() if c <= bound}
                for n in settled:
                    assert part.length_m[n] == full.length_m[n]
                    assert part.time_s[n] == full.time_s[n]
                    assert part.path_to(n) == full.path_to(n)
                # any other node it holds has a tentative, upper-bound cost
                assert all(c >= full.cost[n] for n, c in part.cost.items()
                           if n not in settled)


def test_network_tables_round_trip(tmp_path):
    net = triangle()
    nodes_path = str(tmp_path / "nodes.csv")
    edges_path = str(tmp_path / "edges.csv")
    write_nodes([net.node(i) for i in net.node_ids], nodes_path)
    write_edges(list(net.edges), edges_path)
    back = load_network(nodes_path, edges_path)
    assert back.node_ids == net.node_ids
    assert back.edges == net.edges


def test_turn_penalty_table_loads_and_applies(tmp_path):
    nodes = [Node(1, 0, 0), Node(2, 1000, 0), Node(3, 2000, 0)]
    edges = [Edge(1, 2, 1000, 40), Edge(2, 3, 1000, 40)]
    nodes_path, edges_path = str(tmp_path / "n.csv"), str(tmp_path / "e.csv")
    turns_path = str(tmp_path / "t.csv")
    write_nodes(nodes, nodes_path)
    write_edges(edges, edges_path)
    with open(turns_path, "w") as fh:
        fh.write("from_edge_index,to_edge_index,penalty_s\n0,1,25.5\n")
    net = load_network(nodes_path, edges_path, turns_path)
    _, cost = shortest_path(net, 1, 3, "time")
    assert cost == pytest.approx(90.0 + 90.0 + 25.5)


def test_bad_header_raises_data_error(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("id,x,y\n1,0,0\n")
    with pytest.raises(DataError):
        load_network(str(p), str(p))


@pytest.mark.parametrize("loader", [load_nodes, load_buildings, load_stops,
                                    load_factors])
def test_table_loaders_reject_a_missing_file_and_a_wrong_header(tmp_path, loader):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DataError, match=f"cannot read {re.escape(str(missing))}: "):
        loader(str(missing))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    with pytest.raises(DataError,
                       match=rf"{re.escape(str(wrong))}: expected header \w+,"):
        loader(str(wrong))


CITY3X3 = os.path.join(os.path.dirname(__file__), "..", "demo", "city3x3")


def load_turns(path: str) -> RoadNetwork:
    """The city3x3 demo network with the turns file at ``path``."""
    return load_network(os.path.join(CITY3X3, "nodes.csv"),
                        os.path.join(CITY3X3, "edges.csv"), path)


TABLES = [(load_nodes, NODE_HEADER), (load_edges, EDGE_HEADER),
          (load_turns, TURN_HEADER), (load_buildings, BUILDING_HEADER),
          (load_stops, STOP_HEADER), (load_factors, FACTOR_HEADER)]


@pytest.mark.parametrize("loader, header", TABLES,
                         ids=[loader.__name__ for loader, _ in TABLES])
def test_table_loaders_reject_an_oversized_field_naming_the_path(tmp_path, loader,
                                                                  header):
    # a field past the csv module's default limit of 131,072 characters
    table = tmp_path / "table.csv"
    table.write_text(",".join(header) + "\n1," + "1" * 140_000 + "\n")
    with pytest.raises(DataError, match=rf"{re.escape(str(table))}: line 2: "
                       r"field larger than field limit"):
        loader(str(table))


@pytest.mark.parametrize("loader, header", TABLES,
                         ids=[loader.__name__ for loader, _ in TABLES])
def test_table_loaders_reject_a_row_longer_than_the_header(tmp_path, loader, header):
    table = tmp_path / "table.csv"
    row = ",".join(["1"] * len(header))
    table.write_text(f"{','.join(header)}\n{row},junk\n")
    with pytest.raises(DataError, match=rf"{re.escape(str(table))}: line 2: "
                       rf"{len(header) + 1} fields, the header has {len(header)}"):
        loader(str(table))


def test_invalid_edge_rejected():
    with pytest.raises(ValueError):
        RoadNetwork([Node(1, 0, 0)], [Edge(1, 2, 100, 40)])
    with pytest.raises(ValueError):
        RoadNetwork([Node(1, 0, 0), Node(2, 1, 1)], [Edge(1, 2, -5, 40)])
    with pytest.raises(ValueError):
        RoadNetwork([Node(1, 0, 0), Node(1, 1, 1)], [])


@pytest.mark.parametrize("length_m, speed_kmh, time_s", [
    (1e308, 1.0, "inf"),  # 1e308 * 3.6 overflows
    (5e-324, 1e300, "0.0"),  # the smallest length at a huge speed underflows
], ids=["overflows", "underflows"])
def test_edge_without_a_finite_positive_travel_time_rejected(length_m, speed_kmh,
                                                             time_s):
    # each length and speed alone is finite and positive; before this check a
    # time matrix called node 2 unreachable while a distance matrix reached it
    edge = Edge(1, 2, length_m, speed_kmh)
    assert edge.travel_time_s == float(time_s)
    with pytest.raises(ValueError, match="^edge 1 needs a finite positive travel "
                       rf"time, got {time_s} s$"):
        RoadNetwork([Node(1, 0.0, 0.0), Node(2, 100.0, 0.0)],
                    [Edge(2, 1, 100.0, 40.0), edge])


def write_two_node_network(tmp_path, edge_rows: str):
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes_path.write_text("id,x_m,y_m\n1,0.0,0.0\n2,100.0,0.0\n")
    edges_path.write_text("from_id,to_id,length_m,speed_kmh\n" + edge_rows)
    return str(nodes_path), str(edges_path)


def test_nan_edge_length_rejected_naming_the_edge(tmp_path):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,40\n2,1,nan,40\n")
    with pytest.raises(DataError, match=r"edge 1 needs a finite positive length"):
        load_network(nodes, edges)


def test_infinite_edge_speed_rejected_naming_the_edge(tmp_path):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,inf\n2,1,100,40\n")
    with pytest.raises(DataError, match=r"edge 0 needs a finite positive length"):
        load_network(nodes, edges)


TWO_NODES = "1,0.0,0.0\n2,100.0,0.0\n"


@pytest.mark.parametrize("node_rows, edge_rows, table, message", [
    ("1,0.0,0.0\n1,100.0,0.0\n", "", "nodes", "duplicate node id 1"),
    ("1,0.0,0.0\n2,nan,0.0\n", "", "nodes", "node 2 has non-finite coordinates"),
    ("1,-1e308,0.0\n2,1e308,0.0\n", "", "nodes",
     "node coordinates span more than the float range"),
    (TWO_NODES, "1,2,100,40\n2,3,100,40\n", "edges",
     "edge 1 references unknown node"),
    (TWO_NODES, "1,2,0,40\n", "edges",
     "edge 0 needs a finite positive length and speed, got 0.0 m at 40.0 km/h"),
    (TWO_NODES, "2,1,100,40\n1,2,1e308,1\n", "edges",
     "edge 1 needs a finite positive travel time, got inf s"),
    (TWO_NODES, "1,2,5e-324,1e300\n", "edges",
     "edge 0 needs a finite positive travel time, got 0.0 s"),
], ids=["repeated_node", "nan_coordinate", "span_past_the_floats",
        "unknown_node", "zero_length", "travel_time_overflows",
        "travel_time_underflows"])
def test_bad_node_or_edge_row_is_a_data_error_naming_its_file(
        tmp_path, node_rows, edge_rows, table, message):
    paths = {"nodes": tmp_path / "nodes.csv", "edges": tmp_path / "edges.csv"}
    paths["nodes"].write_text("id,x_m,y_m\n" + node_rows)
    paths["edges"].write_text("from_id,to_id,length_m,speed_kmh\n" + edge_rows)
    with pytest.raises(DataError, match=f"^{re.escape(f'{paths[table]}: {message}')}$"):
        load_network(str(paths["nodes"]), str(paths["edges"]))


# edge 0 runs 1 -> 2 and edge 1 runs 2 -> 1, so (0,1) and (1,0) are turns
@pytest.mark.parametrize("row, message", [
    ("0,5,10", r"turn penalty references unknown edge \(0,5\)"),
    ("0,0,10", r"turn penalty \(0,0\) joins non-adjacent edges"),
    ("0,1,-5", r"turn penalty \(0,1\) must be finite and non-negative, got -5\.0"),
    ("0,1,inf", r"turn penalty \(0,1\) must be finite and non-negative, got inf"),
    ("0,1,nan", r"turn penalty \(0,1\) must be finite and non-negative, got nan"),
], ids=["unknown_edge", "non_adjacent", "negative", "infinite", "nan"])
def test_invalid_turn_penalty_rejected_naming_the_pair(tmp_path, row, message):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,40\n2,1,100,40\n")
    turns = tmp_path / "turns.csv"
    turns.write_text(f"from_edge_index,to_edge_index,penalty_s\n1,0,60\n{row}\n")
    with pytest.raises(DataError, match=message):
        load_network(nodes, edges, str(turns))


def test_repeated_turn_penalty_pair_rejected_naming_the_pair(tmp_path):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,40\n2,1,100,40\n")
    turns = tmp_path / "turns.csv"
    turns.write_text("from_edge_index,to_edge_index,penalty_s\n"
                     "0,1,60\n1,0,60\n0,1,5\n")
    with pytest.raises(DataError, match=rf"{re.escape(str(turns))}: turn "
                       r"penalty 0,1 appears more than once"):
        load_network(nodes, edges, str(turns))


def test_turn_table_reports_whichever_bad_row_comes_first(tmp_path):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,40\n2,1,100,40\n")
    turns = tmp_path / "turns.csv"
    turns.write_text("from_edge_index,to_edge_index,penalty_s\n"
                     "0,1,60\n0,1,5\n1,x,60\n")
    with pytest.raises(DataError, match=r"turn penalty 0,1 appears more than once"):
        load_network(nodes, edges, str(turns))
    turns.write_text("from_edge_index,to_edge_index,penalty_s\n"
                     "0,1,60\n1,x,60\n0,1,5\n")
    with pytest.raises(DataError, match=r"bad turn-penalty row \['1', 'x', '60'\]"):
        load_network(nodes, edges, str(turns))


# each fault comes before a malformed row, and the fault is what is reported
@pytest.mark.parametrize("row, message", [
    ("0,5,10", r"turn penalty references unknown edge \(0,5\)"),
    ("0,0,10", r"turn penalty \(0,0\) joins non-adjacent edges"),
    ("0,1,-5", r"turn penalty \(0,1\) must be finite and non-negative, got -5\.0"),
    ("0,1,nan", r"turn penalty \(0,1\) must be finite and non-negative, got nan"),
    ("1,0,5", r"turn penalty 1,0 appears more than once"),
    ("1,0,0", r"turn penalty 1,0 appears more than once"),
], ids=["unknown_edge", "non_adjacent", "negative", "nan", "repeated",
        "repeated_zero"])
def test_first_bad_turn_row_is_reported_naming_the_turns_file(tmp_path, row,
                                                              message):
    nodes, edges = write_two_node_network(tmp_path, "1,2,100,40\n2,1,100,40\n")
    turns = tmp_path / "turns.csv"
    turns.write_text(f"from_edge_index,to_edge_index,penalty_s\n"
                     f"1,0,60\n{row}\n1,x,60\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(turns))}: {message}$"):
        load_network(nodes, edges, str(turns))


@pytest.mark.parametrize("first, again", [(5.0, 5.0), (5.0, 0.0), (0.0, 5.0),
                                          (0.0, 0.0)])
def test_network_rejects_a_repeated_turn_row_naming_the_pair(first, again):
    # edges 1 and 2 both run 2 -> 1: turns onto them are two turns, not one
    nodes = [Node(1, 0, 0), Node(2, 100, 0)]
    edges = [Edge(1, 2, 100, 40), Edge(2, 1, 100, 40), Edge(2, 1, 100, 40)]
    assert RoadNetwork(nodes, edges, [(0, 1, first), (0, 2, again)])
    with pytest.raises(ValueError, match=r"^turn penalty 0,2 appears more than once$"):
        RoadNetwork(nodes, edges, [(0, 2, first), (1, 0, 60.0), (0, 2, again)])


def test_loading_a_turned_network_peaks_close_to_what_it_keeps(tmp_path):
    # a 16x16 grid with 3,136 turns: loading it a second time peaked 52%
    # above what it kept while the loader built a dict of the turns, 11% after
    nodes, edges, _ = gen_synthetic_city(SyntheticCitySpec(seed=3, grid_x=16,
                                                           grid_y=16))
    paths = [str(tmp_path / name) for name in ("n.csv", "e.csv", "t.csv")]
    write_nodes(nodes, paths[0])
    write_edges(edges, paths[1])
    pens = uturn_and_bend_penalties(nodes, edges)
    with open(paths[2], "w") as fh:
        fh.write("from_edge_index,to_edge_index,penalty_s\n")
        fh.writelines(f"{a},{b},{pen}\n" for a, b, pen in turn_rows(pens))
    load_network(*paths)  # the second load measures the loader alone
    tracemalloc.start()
    try:
        net = load_network(*paths)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.has_turn_penalties
    assert peak < 1.3 * kept, (peak, kept)
