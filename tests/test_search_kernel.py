"""The single search kernel against the two it replaced, and against networkx.

``mswplan.network._search`` runs two Dijkstra loops: node states by
either metric, and arriving-edge states when turn penalties change the
time metric. The differential tests hold it to the verbatim node and
edge-state kernels in ``network_reference.py``: the same settled nodes,
with bit-identical cost, length and time, and the same paths, also on
turn tables made to let the edge-state gate prune and on bends and
U-turns priced below and above an edge's time, where the turn check at
settled nodes prunes. The deterministic tests pin what those examples
find only by chance: the turn penalties in a distance search's time,
matrix cells that equal forward re-sums along their paths, fewer pushes
with the gate (measured on the gated loop without the turn check, kept
in ``network_reference.py``), at most 60% of the reference's pushes with
both, no push past a bound, and the bound itself settling. The graphs
are built to tie: integer lengths and speeds that give integer times,
parallel edges, self-loops, turn tables of zeros (which leave the node
search in charge) and positive penalties. The oracle tests check
``cost_matrix`` against networkx, which shares no code with either. Both
oracles read turn penalties from the dicts the tests build the networks
from, never from the network's own tables. The network's one-pass build
of its per-edge successor rows is held to the dict-of-dicts build it
replaced, ``reference_successors``, on turn tables in random order.
"""

import copy
import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph, turn_rows, uturn_and_bend_penalties
from network_reference import (gated_edge_search, reference_search,
                               reference_successors)
from mswplan import network
from mswplan.errors import PlannerError, Unreachable
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


def tie_rich_graph(rng: random.Random, lengths: str,
                   turns: str) -> tuple[RoadNetwork, dict]:
    """Up to 9 nodes with scattered ids, self-loops and parallel edges,
    and the turn penalties the network was built with.

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
    return RoadNetwork(nodes, edges, turn_rows(pens)), pens


def assert_same_search(net: RoadNetwork, pens: dict, source: int, metric: str,
                       bound: float) -> None:
    old = reference_search(net, pens, source, metric, bound)
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
    net, pens = tie_rich_graph(rng, lengths, turns)
    for metric in METRICS:
        for source in net.node_ids:
            values = sorted(reference_search(net, pens, source,
                                             metric).cost.values())
            bounds = (0.0, rng.choice(values),
                      rng.uniform(0.0, 2 * values[-1]), math.inf)
            for bound in bounds:
                assert_same_search(net, pens, source, metric, bound)


def gate_graph(rng: random.Random, lengths: str) -> tuple[RoadNetwork, dict]:
    """A tie-rich graph (self-loops, parallel edges) with a turn table
    that makes the edge-state gate prune, and that table.

    Penalties reach several edge times, most U-turns carry one, and about
    a quarter of the edges have no turn rows at all, so their largest
    penalty is 0.0.
    """
    plain, _ = tie_rich_graph(rng, lengths, "none")
    edges = list(plain.edges)
    top = max((e.travel_time_s for e in edges), default=1.0)
    bare = {ei for ei in range(len(edges)) if rng.random() < 0.25}
    pens: dict[tuple[int, int], float] = {}
    for ei, e in enumerate(edges):
        for fi, f in enumerate(edges):
            if ei in bare or e.to_id != f.from_id:
                continue
            if rng.random() < (0.9 if f.to_id == e.from_id else 0.5):
                pens[(ei, fi)] = (5.0 * rng.randint(0, 24) if lengths == "integer"
                                  else rng.uniform(0.0, 4.0) * top)
    return RoadNetwork([plain.node(i) for i in plain.node_ids], edges,
                       turn_rows(pens)), pens


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.sampled_from(("integer", "uniform")),
)
def test_gated_kernel_matches_the_reference_on_pruning_turn_tables(seed,
                                                                   lengths):
    rng = random.Random(seed)
    net, pens = gate_graph(rng, lengths)
    for metric in METRICS:
        for source in net.node_ids:
            values = sorted(reference_search(net, pens, source,
                                             metric).cost.values())
            bounds = (0.0, rng.choice(values),
                      rng.uniform(0.0, 2 * values[-1]), math.inf)
            for bound in bounds:
                assert_same_search(net, pens, source, metric, bound)


def turn_check_graph(rng: random.Random,
                     lengths: str) -> tuple[RoadNetwork, dict]:
    """A tie-rich graph (self-loops, parallel edges) whose turn table
    prices U-turns and bends alike, and that table.

    Each penalty is a multiple of the time of the edge turned onto, from
    0 to 3 of it: some lie below that time, some equal it and some lie
    above it, so a later arrival at a settled node sometimes still wins a
    turn and sometimes cannot. About a fifth of the edges have no turn
    rows at all.
    """
    plain, _ = tie_rich_graph(rng, lengths, "none")
    edges = list(plain.edges)
    bare = {ei for ei in range(len(edges)) if rng.random() < 0.2}
    pens: dict[tuple[int, int], float] = {}
    for ei, e in enumerate(edges):
        for fi, f in enumerate(edges):
            if ei in bare or e.to_id != f.from_id:
                continue
            if rng.random() < (0.8 if f.to_id == e.from_id else 0.6):
                scale = (rng.choice((0.0, 0.5, 1.0, 2.0, 3.0))
                         if lengths == "integer" else rng.uniform(0.0, 3.0))
                pens[(ei, fi)] = scale * f.travel_time_s
    return RoadNetwork([plain.node(i) for i in plain.node_ids], edges,
                       turn_rows(pens)), pens


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.sampled_from(("integer", "uniform")),
)
def test_turn_checked_kernel_matches_the_reference_on_bends_and_uturns(
        seed, lengths):
    rng = random.Random(seed)
    net, pens = turn_check_graph(rng, lengths)
    for metric in METRICS:
        for source in net.node_ids:
            values = sorted(reference_search(net, pens, source,
                                             metric).cost.values())
            bounds = (0.0, rng.choice(values),
                      rng.uniform(0.0, 2 * values[-1]), math.inf)
            for bound in bounds:
                assert_same_search(net, pens, source, metric, bound)


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    turns=st.sampled_from(("none", "zero", "positive", "bends")),
)
def test_successor_rows_equal_the_dict_of_dicts_build(seed, turns):
    """The one-pass build of the successor rows, in any table order, gives
    the reference's rows, largest penalties and turn flag, and shares the
    head's row, or in a copy the row's tuple, wherever no penalty is set."""
    rng = random.Random(seed)
    net, pens = (turn_check_graph(rng, "uniform") if turns == "bends"
                 else tie_rich_graph(rng, "integer", turns))
    table = turn_rows(pens)
    rng.shuffle(table)
    net = RoadNetwork([net.node(i) for i in net.node_ids], list(net.edges),
                      table)
    succ, hi, has_turn_penalties = reference_successors(net, pens)
    assert [tuple(row) for row in net._succ] == succ
    assert net._hi == hi
    assert net.has_turn_penalties == has_turn_penalties
    for row, e, top in zip(net._succ, net.edges, net._hi):
        head = net._rows[net._pos[e.to_id]]
        assert row is head if top == 0.0 else type(row) is list
        assert all(turn is shared for turn, shared in zip(row, head)
                   if turn[4] == 0.0)


def turned_grid_city(grid: int, **spec) -> tuple[RoadNetwork, dict]:
    """A synthetic grid city with a 60 s U-turn and a 10 s bend penalty,
    and those penalties; ``spec`` overrides more SyntheticCitySpec
    fields."""
    nodes, edges, _ = gen_synthetic_city(
        SyntheticCitySpec(seed=3, grid_x=grid, grid_y=grid, **spec))
    pens = uturn_and_bend_penalties(nodes, edges)
    return RoadNetwork(nodes, edges, turn_rows(pens)), pens


@pytest.mark.parametrize("metric", METRICS)
def test_single_kernel_matches_the_reference_on_a_turned_grid_city(metric):
    net, pens = turned_grid_city(6)
    assert net.has_turn_penalties
    for source in net.node_ids:
        assert_same_search(net, pens, source, metric, math.inf)


@DIFFERENTIAL
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.sampled_from(("integer", "uniform")),
    turns=st.sampled_from(("none", "zero", "positive")),
)
def test_matrix_cells_equal_a_fresh_search(seed, lengths, turns):
    # origins and destinations unsorted, repeated, and partly unreachable
    rng = random.Random(seed)
    net, _ = tie_rich_graph(rng, lengths, turns)
    ids = net.node_ids
    for metric in METRICS:
        origins = rng.choices(ids, k=rng.randint(1, 2 * len(ids)))
        destinations = rng.choices(ids, k=rng.randint(1, 2 * len(ids)))
        m = cost_matrix(net, origins, destinations, metric)
        for i, a in enumerate(origins):
            fresh = _search(net, a, metric)
            for j, b in enumerate(destinations):
                if b in fresh.cost:
                    assert m.cost[i][j] == fresh.cost[b]
                    assert m.length_m[i][j] == fresh.length_m[b]
                    assert m.time_s[i][j] == fresh.time_s[b]
                    assert m.path(a, b) == fresh.path_to(b)
                else:
                    assert (m.cost[i][j] == m.length_m[i][j] == m.time_s[i][j]
                            == UNREACHABLE)
                    with pytest.raises(Unreachable):
                        m.path(a, b)


@pytest.mark.parametrize("metric", METRICS)
def test_kept_matrix_searches_hold_only_their_path_links(metric):
    # time runs over edge states here, distance over nodes
    net, _ = turned_grid_city(4)
    ids = net.node_ids
    m = cost_matrix(net, ids, ids, metric)
    assert set(m._searches) == set(ids)
    for a, search in m._searches.items():
        held = {name for name in type(search).__slots__
                if getattr(search, name) is not None}
        assert len(search._arrive) == net.n_nodes
        if metric == "time":
            assert held == {"source", "metric", "_net", "_arrive", "_parent"}
            assert len(search._parent) == len(net.edges)
        else:
            # a node search walks back by each arriving edge's tail
            assert held == {"source", "metric", "_net", "_arrive"}
        fresh = _search(net, a, metric)
        assert [m.path(a, b) for b in ids] == [fresh.path_to(b) for b in ids]


@pytest.mark.parametrize("metric", METRICS)
def test_a_cycle_in_the_kept_path_links_raises(metric):
    net, _ = turned_grid_city(4)
    a, b = net.node_ids[0], net.node_ids[-1]
    m = cost_matrix(net, [a], [b], metric)
    search = m._searches[a]
    e = search._arrive[net._pos[b]]
    # the link before b's arriving edge points back at that edge
    if search._parent is None:  # a node search: the arriving edge of e's tail
        search._arrive[net._pos[net.edges[e].from_id]] = e
    else:
        search._parent[e] = e
    with pytest.raises(PlannerError, match=f"from {a} to {b} form a cycle"):
        m.path(a, b)


def count_pushes(search, sources) -> tuple[int, list]:
    """Heap pushes ``search`` makes over ``sources``, and per source its
    cost, length and time tables and its path to every node.

    Both the kernel and the reference kernels push through the one
    ``heapq`` module, so patching its ``heappush`` counts either.
    """
    pushes = 0
    real_push = heapq.heappush

    def counting_push(heap, entry):
        nonlocal pushes
        pushes += 1
        real_push(heap, entry)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heapq, "heappush", counting_push)
        runs = [search(s) for s in sources]
    return pushes, [(r.cost, r.length_m, r.time_s,
                     [r.path_to(t) for t in sources]) for r in runs]


def test_gate_pushes_fewer_entries_with_the_same_answers():
    # the edge-state loop with the gate alone, so the turn check at
    # settled nodes prunes nothing on either side of the comparison
    net, _ = turned_grid_city(6)
    # the same network with every gate open, but the source's (0.0)
    ungated = copy.copy(net)
    ungated._hi = [math.inf] * len(net.edges)
    ids = net.node_ids
    gated, answers = count_pushes(lambda s: gated_edge_search(net, s), ids)
    opened, open_answers = count_pushes(
        lambda s: gated_edge_search(ungated, s), ids)
    _, kernel_answers = count_pushes(lambda s: _search(net, s, "time"), ids)
    assert answers == open_answers == kernel_answers
    assert gated < opened


def test_kernel_pushes_at_most_60_percent_of_the_reference():
    # every source of a 6x6 turned grid: the gate and the turn check
    # together leave 5,376 of the reference kernel's 11,256 pushes
    net, pens = turned_grid_city(6)
    ids = net.node_ids
    kernel, answers = count_pushes(lambda s: _search(net, s, "time"), ids)
    ref, ref_answers = count_pushes(
        lambda s: reference_search(net, pens, s, "time"), ids)
    assert answers == ref_answers
    assert kernel <= 0.6 * ref


def matrix_grids():
    """(network, penalties) of turned and plain grid cities, with round
    and with skewed block lengths and speeds (sums that round)."""
    for spec in ({}, {"block_m": 211.1, "speed_kmh": 37.0}):
        net, pens = turned_grid_city(6, **spec)
        yield net, pens
        yield RoadNetwork([net.node(i) for i in net.node_ids],
                          list(net.edges)), {}


def resum(net: RoadNetwork, pens: dict, edge_of: dict, path: list[int],
          metric: str) -> tuple[float, float]:
    """(length, time) re-summed forward along ``path``, whose node pairs
    ``edge_of`` names the edges of, in the kernel's order: a time search
    adds cost + pen + time, the time of a distance search acc + time +
    pen."""
    length = time = 0.0
    prev = None
    for x, y in zip(path, path[1:]):
        ei = edge_of[x, y]
        pen = 0.0 if prev is None else pens.get((prev, ei), 0.0)
        length = length + net.edges[ei].length_m
        if metric == "time":
            time = time + pen + net.edges[ei].travel_time_s
        else:
            time = time + net.edges[ei].travel_time_s + pen
        prev = ei
    return length, time


@pytest.mark.parametrize("metric", METRICS)
def test_matrix_cells_are_sums_along_their_paths(metric):
    # the metric searched and the other one, in matrix cells and in a
    # search bounded at the row's median, all equal a forward re-sum
    for net, pens in matrix_grids():
        edge_of = {(e.from_id, e.to_id): ei for ei, e in enumerate(net.edges)}
        assert len(edge_of) == len(net.edges)  # a node pair names its edge
        ids = net.node_ids
        m = cost_matrix(net, ids, ids, metric)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert m.cost[i][j] != UNREACHABLE
                assert (m.length_m[i][j], m.time_s[i][j]) == resum(
                    net, pens, edge_of, m.path(a, b), metric)
            bound = sorted(m.cost[i])[len(ids) // 2]
            res = _search(net, a, metric, bound)
            assert len(res.cost) > 1
            for b in res.cost:
                assert (res.length_m[b], res.time_s[b]) == resum(
                    net, pens, edge_of, res.path_to(b), metric)


def test_distance_search_time_includes_the_turns_it_takes():
    net, pens = turned_grid_city(4)
    edge_of = {(e.from_id, e.to_id): ei for ei, e in enumerate(net.edges)}
    assert len(edge_of) == len(net.edges)  # a node pair names its edge
    turned = 0
    for source in net.node_ids:
        res = _search(net, source, "distance")
        for target, time_s in res.time_s.items():
            path = res.path_to(target)
            edges = [edge_of[a, b] for a, b in zip(path, path[1:])]
            # the kernel's sum: each edge's time, then the turn onto it
            want, plain, prev = 0.0, 0.0, None
            for ei in edges:
                pen = 0.0 if prev is None else pens.get((prev, ei), 0.0)
                want = want + net.edges[ei].travel_time_s + pen
                plain += net.edges[ei].travel_time_s
                prev = ei
            assert time_s == want
            turned += want > plain
    assert turned > 0


def bounded_grid(turns: bool) -> RoadNetwork:
    """A 4x4 grid city, with its U-turn and bend penalties if ``turns``."""
    net, _ = turned_grid_city(4)
    return net if turns else RoadNetwork(
        [net.node(i) for i in net.node_ids], list(net.edges))


@pytest.mark.parametrize("metric, turns", [("time", False), ("time", True),
                                           ("distance", True)])
def test_bounded_search_pushes_nothing_past_its_bound(monkeypatch, metric,
                                                      turns):
    net = bounded_grid(turns)
    source = net.node_ids[0]
    values = sorted(_search(net, source, metric).cost.values())
    bound = values[len(values) // 2]
    pushed: list[float] = []
    real_push = heapq.heappush

    def recording_push(heap, entry):
        pushed.append(entry[0])
        real_push(heap, entry)

    monkeypatch.setattr(network.heapq, "heappush", recording_push)
    _search(net, source, metric)
    assert max(pushed) > bound  # the unbounded search does push past it
    pushed.clear()
    res = _search(net, source, metric, bound)
    assert pushed and max(pushed) <= bound
    assert max(res.cost.values()) == bound


@pytest.mark.parametrize("metric, turns", [("time", False), ("time", True),
                                           ("distance", False)])
def test_node_exactly_at_the_bound_settles_and_one_step_beyond_does_not(metric,
                                                                        turns):
    # 100 m at 36 km/h: each edge is 100 m and 10 s, so node 2 sits at
    # exactly 200 m and 20 s; the only penalty is a U-turn off the path
    nodes = [Node(i, 100.0 * i, 0.0) for i in range(4)]
    edges = [Edge(a, b, 100.0, 36.0) for i in range(3)
             for a, b in ((i, i + 1), (i + 1, i))]
    net = RoadNetwork(nodes, edges, [(0, 1, 60.0)] if turns else ())
    assert net.has_turn_penalties == turns
    at = 200.0 if metric == "distance" else 20.0
    assert _search(net, 0, metric, at).cost == {0: 0.0, 1: at / 2, 2: at}
    assert _search(net, 0, metric, math.nextafter(at, 0.0)).cost == {
        0: 0.0, 1: at / 2}


def networkx_costs(net: RoadNetwork, source: int, metric: str,
                   pens: dict | None) -> dict[int, float]:
    """Per-node optimal cost from networkx's Dijkstra.

    With turn penalties ``pens``, the search runs on the turn-expanded
    line graph: one vertex per edge, an arc between consecutive edges
    weighted by the turn penalty plus the second edge's time, and the
    source joined to its out-edges.
    """
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    edges = net.edges
    if pens is None:
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
                g.add_edge(fi, gi, w=pens.get((fi, gi), 0.0) + h.travel_time_s)
    out = {source: 0.0}
    for state, c in nx.single_source_dijkstra_path_length(g, src,
                                                          weight="w").items():
        if state != src:
            node = edges[state].to_id
            out[node] = min(out.get(node, math.inf), c)
    return out


def assert_matrix_matches_networkx(net: RoadNetwork, metric: str,
                                   pens: dict | None) -> None:
    ids = net.node_ids
    m = cost_matrix(net, ids, ids, metric)
    for i, a in enumerate(ids):
        want = networkx_costs(net, a, metric, pens)
        for j, b in enumerate(ids):
            if b in want:
                assert m.cost[i][j] == pytest.approx(want[b], rel=1e-12)
            else:
                assert m.cost[i][j] == UNREACHABLE


@pytest.mark.parametrize("metric", METRICS)
def test_cost_matrix_matches_networkx_without_turns(metric):
    rng = random.Random(4242)
    for _ in range(40):
        assert_matrix_matches_networkx(random_graph(rng), metric, None)


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
                          list(plain.edges), turn_rows(pens))
        penalized += net.has_turn_penalties
        assert_matrix_matches_networkx(net, "time", pens)
    net, pens = turned_grid_city(4)
    assert_matrix_matches_networkx(net, "time", pens)
    assert penalized >= 20
