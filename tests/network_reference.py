"""Reference search: the two Dijkstra kernels that ``mswplan.network``
replaced with one, kept verbatim with the result class they filled.

``_search_nodes`` keys its states by node and ``_search_edge_states``
by arriving edge; each records its own parent links. They read the
network through the per-call methods they were written against
(``out_edges``, ``edge``, ``turn_penalty``, all gone from
:class:`RoadNetwork`), which :class:`OldNetwork` supplies from a current
network's edge tuple and the turn-penalty dict the network was built
from, so the reference reads no table the kernel reads.
``tests/test_search_kernel.py`` requires the single kernel to settle the
same nodes with the same values and paths.

``gated_edge_search`` is the kernel's edge-state loop as it was with
the dominance gate alone, before it also declined arrivals at a settled
node whose turns can win nothing; the tests open its gate to measure
what the gate prunes by itself.

``reference_successors`` is the network constructor's build of its
per-edge successor rows as it was before it wrote each penalty in one
pass over the turn table: a dict-of-dicts of the turns, then a rebuilt
row per edge that has any. The tests require the one-pass build to give
the same rows, largest penalties and turn flag.
"""

from __future__ import annotations

import heapq
import math

from mswplan import network
from mswplan.network import Edge, RoadNetwork


class OldNetwork:
    """The reads the old kernels made, over a current network's edges and
    the ``(in edge, out edge) -> seconds`` dict it was built from."""

    def __init__(self, net: RoadNetwork, pens: dict[tuple[int, int], float]):
        self._pens = pens
        self.edges = net.edges
        self.has_turn_penalties = any(p > 0 for p in pens.values())

    def out_edges(self, node_id: int) -> tuple[int, ...]:
        return tuple(ei for ei, e in enumerate(self.edges)
                     if e.from_id == node_id)

    def edge(self, index: int) -> Edge:
        return self.edges[index]

    def turn_penalty(self, in_edge: int, out_edge: int) -> float:
        return self._pens.get((in_edge, out_edge), 0.0)


def reference_search(net: RoadNetwork, pens: dict[tuple[int, int], float],
                     source: int, metric: str,
                     bound: float = math.inf) -> _SearchResult:
    """The search the old ``_single_source`` dispatched to, on ``net``
    built with the turn penalties ``pens``; the edge-state search has no
    bound and settles every reachable node."""
    old = OldNetwork(net, pens)
    if metric == "time" and old.has_turn_penalties:
        return _search_edge_states(old, source)
    return _search_nodes(old, source, metric, bound)


class _SearchResult:
    """Single-source search output: per-node drive time and length.

    Path reconstruction is mode-specific: plain Dijkstra stores one
    parent edge per node, the turn-penalty search stores one parent per
    edge state (the same node can be crossed via different incoming
    edges on different optimal paths).
    """

    __slots__ = ("source", "metric", "length_m", "time_s",
                 "_net", "_parent_edge", "_node_best", "_parent_state")

    def __init__(self, net: RoadNetwork, source: int, metric: str):
        self.source = source
        self.metric = metric
        self.length_m: dict[int, float] = {source: 0.0}
        self.time_s: dict[int, float] = {source: 0.0}
        self._net = net
        self._parent_edge: dict[int, int] = {}
        self._node_best: dict[int, int] | None = None
        self._parent_state: list[int | None] | None = None

    @property
    def cost(self) -> dict[int, float]:
        """Per-node optimal value in the search metric."""
        return self.time_s if self.metric == "time" else self.length_m

    def path_to(self, target: int) -> list[int]:
        if target == self.source:
            return [self.source]
        edge_seq: list[int] = []
        if self._node_best is not None:
            assert self._parent_state is not None
            state: int | None = self._node_best[target]
            while state is not None:
                edge_seq.append(state)
                state = self._parent_state[state]
        else:
            node = target
            while node != self.source:
                ei = self._parent_edge[node]
                edge_seq.append(ei)
                node = self._net.edge(ei).from_id
        edge_seq.reverse()
        seq = [self.source]
        for ei in edge_seq:
            seq.append(self._net.edge(ei).to_id)
        return seq


def _search_nodes(net: RoadNetwork, source: int, metric: str,
                  bound: float = math.inf) -> _SearchResult:
    """Plain node-keyed Dijkstra; ties pop the smaller node id.

    The search stops at the first pop that costs more than ``bound``.
    Every node within the bound is settled with the value, and in the
    heap order, of the unbounded search; a node left unsettled carries a
    tentative cost above the bound.
    """
    res = _SearchResult(net, source, metric)
    by_time = metric == "time"
    cost = res.cost  # the metric's own table, written by the relaxation below
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        cost_u, u = heapq.heappop(heap)
        if cost_u > bound:
            break
        if u in done:
            continue
        done.add(u)
        in_edge = res._parent_edge.get(u)
        for ei in net.out_edges(u):
            e = net.edge(ei)
            v = e.to_id
            if v in done:
                continue
            nc = cost_u + (e.travel_time_s if by_time else e.length_m)
            if v not in cost or nc < cost[v]:
                res.length_m[v] = res.length_m[u] + e.length_m
                # physical drive time along the chosen path, turns included
                pen = 0.0 if in_edge is None else net.turn_penalty(in_edge, ei)
                res.time_s[v] = res.time_s[u] + e.travel_time_s + pen
                res._parent_edge[v] = ei
                heapq.heappush(heap, (nc, v))
    return res


def _search_edge_states(net: RoadNetwork, source: int) -> _SearchResult:
    """Time-metric Dijkstra over incoming-edge states.

    Required when turn penalties are present: the cheapest way to stand
    at a node depends on the edge used to arrive. States are edge
    indices; the per-node answer is the first state settled at that node
    (minimum cost, then smaller node id, then smaller edge index).
    """
    res = _SearchResult(net, source, "time")
    n_edges = len(net.edges)
    cost_e = [math.inf] * n_edges
    len_e = [0.0] * n_edges
    parent_e: list[int | None] = [None] * n_edges
    done_e = [False] * n_edges
    node_best: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = []
    for ei in net.out_edges(source):
        e = net.edge(ei)
        cost_e[ei] = e.travel_time_s
        len_e[ei] = e.length_m
        heapq.heappush(heap, (cost_e[ei], e.to_id, ei))
    while heap:
        cost_u, node_u, ei = heapq.heappop(heap)
        if done_e[ei]:
            continue
        done_e[ei] = True
        if node_u not in node_best and node_u != source:
            node_best[node_u] = ei
            res.time_s[node_u] = cost_u
            res.length_m[node_u] = len_e[ei]
        for fi in net.out_edges(node_u):
            if done_e[fi]:
                continue
            f = net.edge(fi)
            nc = cost_u + net.turn_penalty(ei, fi) + f.travel_time_s
            if nc < cost_e[fi]:
                cost_e[fi] = nc
                len_e[fi] = len_e[ei] + f.length_m
                parent_e[fi] = ei
                heapq.heappush(heap, (nc, f.to_id, fi))
    res._node_best = node_best
    res._parent_state = parent_e
    return res


def gated_edge_search(net: RoadNetwork, source: int) -> network._SearchResult:
    """The time search over arriving edges with the gate and no turn check:
    an arrival at a settled node is pushed whenever it beats the edge's
    best and the node's gate, whatever its turns could win."""
    rows, succ = net._rows, net._succ
    src, n_nodes = net._pos[source], len(rows)
    arrive: list[int | None] = [None] * n_nodes
    parent = [-1] * len(net.edges)
    n = len(parent) + 1
    best, other = [math.inf] * n, [0.0] * n
    hi, gate = net._hi, [math.inf] * n_nodes
    best[-1] = gate[src] = 0.0
    arrive[src], order, heap = -1, [src], []
    for fi, v, len_f, nc, _ in rows[src]:
        if nc < best[fi] and nc < gate[v]:
            best[fi], other[fi] = nc, len_f
            heapq.heappush(heap, (nc, v, fi))
    while heap:
        cost_u, u, ei = heapq.heappop(heap)
        if cost_u > best[ei]:
            continue
        if arrive[u] is None:
            arrive[u] = ei
            order.append(u)
            gate[u] = cost_u + hi[ei]
        len_u = other[ei]
        for fi, v, len_f, time_f, pen in succ[ei]:
            nc = cost_u + pen + time_f
            if nc < best[fi] and nc < gate[v]:
                best[fi] = nc
                other[fi] = len_u + len_f
                parent[fi] = ei
                heapq.heappush(heap, (nc, v, fi))
    return network._SearchResult(net, source, "time", arrive, parent,
                                 order, best, other, arrive)


def reference_successors(net: RoadNetwork, pens: dict[tuple[int, int], float]
                         ) -> tuple[list[tuple], list[float], bool]:
    """Per edge, its head's out-edge rows with each turn's penalty in the
    last slot, the largest penalty of a turn off it, and whether any
    penalty is positive, built from ``net``'s nodes and edges and the
    turn penalties ``pens`` as the constructor once built them."""
    pos = {nid: p for p, nid in enumerate(net.node_ids)}
    rows: list[list[tuple]] = [[] for _ in pos]
    for i, e in enumerate(net.edges):
        rows[pos[e.from_id]].append(
            (i, pos[e.to_id], e.length_m, e.travel_time_s, 0.0))
    node_rows = [tuple(row) for row in rows]
    turns: dict[int, dict[int, float]] = {}  # in edge -> out edge -> s
    for (a, b), pen in pens.items():
        turns.setdefault(a, {})[b] = pen
    has_turn_penalties = any(
        p > 0 for row in turns.values() for p in row.values())
    succ = [node_rows[pos[e.to_id]] for e in net.edges]
    hi = [0.0] * len(net.edges)
    for a, out in turns.items():
        succ[a] = tuple((fi, v, len_f, time_f, out.get(fi, 0.0))
                        for fi, v, len_f, time_f, _ in succ[a])
        hi[a] = max(out.values())
    return succ, hi, has_turn_penalties
