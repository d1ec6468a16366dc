"""The single search kernel against the two it replaced, and against networkx.

``mswplan.network._search`` runs one Dijkstra loop over node states, or
over arriving-edge states when turn penalties change the time metric.
The differential tests hold it to the verbatim node and edge-state
kernels in ``network_reference.py``: the same settled nodes, with
bit-identical cost, length and time, and the same paths. The graphs are
built to tie: integer lengths and speeds that give integer times,
parallel edges, self-loops, turn tables of zeros (which leave the node
search in charge) and positive penalties. The oracle tests check
``cost_matrix`` against networkx, which shares no code with either.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph
from network_reference import reference_search
from mswplan.network import (
    METRICS,
    UNREACHABLE,
    Edge,
    Node,
    RoadNetwork,
    _search,
    cost_matrix,
)
from mswplan.synth import SyntheticCitySpec, gen_synthetic_city

DIFFERENTIAL = settings(max_examples=300, deadline=None, derandomize=True,
                        database=None)


def tie_rich_graph(rng: random.Random, lengths: str, turns: str) -> RoadNetwork:
    """Up to 9 nodes with scattered ids, self-loops and parallel edges.

    ``lengths`` "integer" draws 100-400 m at 36 or 72 km/h (times of
    5-40 s, so sums tie often); "uniform" draws real lengths and speeds.
    ``turns`` "none", "zero" (a table of zero penalties) or "positive"
    (whole seconds, zeros among them, on about 40% of the turns).
    """
    ids = rng.sample(range(1, 40), rng.randint(1, 9))
    nodes = [Node(i, rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in ids]
    edges: list[Edge] = []
    for _ in range(rng.randint(0, 30)):
        a = rng.choice(ids)
        b = a if rng.random() < 0.1 else rng.choice(ids)
        if lengths == "integer":
            edges.append(Edge(a, b, 100.0 * rng.randint(1, 4),
                              rng.choice((36.0, 72.0))))
        else:
            edges.append(Edge(a, b, rng.uniform(50, 3000),
                              rng.choice((20.0, 30.0, 40.0, 50.0, 60.0))))
        if rng.random() < 0.2:
            edges.append(edges[-1])  # a parallel edge
    pens: dict[tuple[int, int], float] = {}
    if turns != "none":
        for ei, e in enumerate(edges):
            for fi, f in enumerate(edges):
                if e.to_id == f.from_id and rng.random() < 0.4:
                    pens[(ei, fi)] = (0.0 if turns == "zero"
                                      else float(rng.choice((0, 5, 10, 30))))
    return RoadNetwork(nodes, edges, pens)


def assert_same_search(net: RoadNetwork, source: int, metric: str,
                       bound: float) -> None:
    old = reference_search(net, source, metric, bound)
    new = _search(net, source, metric, bound)
    settled = {n for n, c in old.cost.items() if c <= bound}
    assert set(new.cost) == set(new.length_m) == set(new.time_s) == settled
    for n in settled:
        assert new.cost[n] == old.cost[n]
        assert new.length_m[n] == old.length_m[n]
        assert new.time_s[n] == old.time_s[n]
        assert new.path_to(n) == old.path_to(n)


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.sampled_from(("integer", "uniform")),
    turns=st.sampled_from(("none", "zero", "positive")),
)
def test_single_kernel_matches_the_node_and_edge_state_kernels(seed, lengths,
                                                               turns):
    rng = random.Random(seed)
    net = tie_rich_graph(rng, lengths, turns)
    for metric in METRICS:
        for source in net.node_ids:
            values = sorted(reference_search(net, source, metric).cost.values())
            bounds = (0.0, rng.choice(values),
                      rng.uniform(0.0, 2 * values[-1]), math.inf)
            for bound in bounds:
                assert_same_search(net, source, metric, bound)


def turned_grid_city(grid: int) -> RoadNetwork:
    """A synthetic grid city with a 60 s U-turn and a 10 s bend penalty."""
    nodes, edges, _ = gen_synthetic_city(
        SyntheticCitySpec(seed=3, grid_x=grid, grid_y=grid))
    xy = {n.id: (n.x_m, n.y_m) for n in nodes}
    pens = {}
    for ei, e in enumerate(edges):
        for fi, f in enumerate(edges):
            if e.to_id != f.from_id:
                continue
            if f.to_id == e.from_id:
                pens[(ei, fi)] = 60.0
            else:
                (ax, ay), (bx, by), (cx, cy) = (xy[e.from_id], xy[e.to_id],
                                                xy[f.to_id])
                if (bx - ax) * (cy - by) != (by - ay) * (cx - bx):
                    pens[(ei, fi)] = 10.0
    return RoadNetwork(nodes, edges, pens)


@pytest.mark.parametrize("metric", METRICS)
def test_single_kernel_matches_the_reference_on_a_turned_grid_city(metric):
    net = turned_grid_city(6)
    assert net.has_turn_penalties
    for source in net.node_ids:
        assert_same_search(net, source, metric, math.inf)


def networkx_costs(net: RoadNetwork, source: int, metric: str,
                   turns: bool) -> dict[int, float]:
    """Per-node optimal cost from networkx's Dijkstra.

    With ``turns``, the search runs on the turn-expanded line graph: one
    vertex per edge, an arc between consecutive edges weighted by the
    turn penalty plus the second edge's time, and the source joined to
    its out-edges.
    """
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    edges = net.edges
    if not turns:
        g.add_nodes_from(net.node_ids)
        for e in edges:
            w = e.travel_time_s if metric == "time" else e.length_m
            if not g.has_edge(e.from_id, e.to_id) or w < g[e.from_id][e.to_id]["w"]:
                g.add_edge(e.from_id, e.to_id, w=w)
        return nx.single_source_dijkstra_path_length(g, source, weight="w")
    src = ("source",)
    g.add_node(src)
    for fi, f in enumerate(edges):
        if f.from_id == source:
            g.add_edge(src, fi, w=f.travel_time_s)
        for gi, h in enumerate(edges):
            if f.to_id == h.from_id:
                g.add_edge(fi, gi, w=net._turns.get(fi, {}).get(gi, 0.0)
                           + h.travel_time_s)
    out = {source: 0.0}
    for state, c in nx.single_source_dijkstra_path_length(g, src,
                                                          weight="w").items():
        if state != src:
            node = edges[state].to_id
            out[node] = min(out.get(node, math.inf), c)
    return out


def assert_matrix_matches_networkx(net: RoadNetwork, metric: str,
                                   turns: bool) -> None:
    ids = net.node_ids
    m = cost_matrix(net, ids, ids, metric)
    for i, a in enumerate(ids):
        want = networkx_costs(net, a, metric, turns)
        for j, b in enumerate(ids):
            if b in want:
                assert m.cost[i][j] == pytest.approx(want[b], rel=1e-12)
            else:
                assert m.cost[i][j] == UNREACHABLE


@pytest.mark.parametrize("metric", METRICS)
def test_cost_matrix_matches_networkx_without_turns(metric):
    rng = random.Random(4242)
    for _ in range(40):
        assert_matrix_matches_networkx(random_graph(rng), metric, False)


def test_time_matrix_matches_networkx_on_the_turn_expanded_graph():
    rng = random.Random(5151)
    penalized = 0
    for _ in range(40):
        plain = random_graph(rng)
        pens = {(ei, fi): rng.uniform(0, 120)
                for ei, e in enumerate(plain.edges)
                for fi, f in enumerate(plain.edges)
                if e.to_id == f.from_id and rng.random() < 0.5}
        net = RoadNetwork([plain.node(i) for i in plain.node_ids],
                          list(plain.edges), pens)
        penalized += net.has_turn_penalties
        assert_matrix_matches_networkx(net, "time", True)
    assert_matrix_matches_networkx(turned_grid_city(4), "time", True)
    assert penalized >= 20
