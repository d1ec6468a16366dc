"""Directed weighted road network and shortest-path machinery.

The network is immutable after construction and safe to share between
workers. Costs come in two metrics: travel time in seconds (edge length
divided by edge speed, plus optional turn penalties) and distance in
meters (turn penalties ignored). Ties in the search are broken toward
the smaller node id so identical inputs always yield identical paths.
One Dijkstra kernel, :func:`_search`, runs every search with two loops:
nodes by either metric, or arriving edges when turn penalties change the
time metric, where it pushes no arrival that can win no relaxation:
none that loses every turn to the edge that settled its node (the gate),
and none at a settled node whose turns can all improve no state (the
turn check). Each state holds its metric's value and the other
metric's, no more. It runs in :func:`cost_matrix`, once per origin, and
in coverage's distance tables, which bound each search by the service
radius: a bounded search starts every state's value just above the
bound, so it never pushes a state beyond it.
``CostMatrix.path`` reads paths back from the kept searches: a node
search keeps only the edge it arrived at each node by, and walks back by
each edge's tail; an arriving-edge search also keeps a parent per edge.
Each network numbers its nodes by position in id order and builds, once,
per-node out-edge rows and per-edge successor rows that carry the turn
penalties, so the kernel's state lives in lists indexed by position or
edge. An edge's successor rows are its head's row until its first
non-zero penalty, which gives it a list copy of that row; the one pass
over the turn rows checks each row and writes its penalty into the copy
at the slot its turn holds in the row, and a turn without a penalty
keeps the row's own tuple. :func:`load_network` streams the turns file
from the CSV reader into that pass, so no table of turns is ever built.
Points snap through a bucket grid each network builds once, whose
:meth:`_NodeGrid.snap` takes a whole list of points in one loop with no
Python call per point but the distances and the answer lookup;
:func:`snap` is its one-point case, and coverage hands it every demand
at once. Most points are answered from one cached list per grid cell
that holds the nodes of the cell and its eight neighbours, and the grid
keeps its answer for each point, so a plan snaps each demand point once
although stop placement and the coverage audit both ask for it.
Every CSV table of the planner, input or output, is read by
:func:`_read_table` and written by :func:`_write_table`, both UTF-8
whatever the locale.
:class:`Node` and :class:`Edge` are immutable named tuples, because a
load or a synthetic city builds thousands and a named tuple is the
cheapest record to build; each equals the plain tuple of its fields,
unpacks and sorts as one, and is written as its own table row. The
network unpacks each edge once, and rejects one whose travel time is
not finite and positive although its length and speed are.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (DataError, NoNodeWithinRange, PlannerError, UnknownNode,
                     Unreachable)

#: Marker stored in cost matrices for node pairs with no directed path.
UNREACHABLE = math.inf

METRICS = ("time", "distance")

_SNAP_TIE_M = 1e-9


class Node(NamedTuple):
    id: int
    x_m: float
    y_m: float


class Edge(NamedTuple):
    from_id: int
    to_id: int
    length_m: float
    speed_kmh: float

    @property
    def travel_time_s(self) -> float:
        return self.length_m * 3.6 / self.speed_kmh


class _RowError(ValueError):
    """A bad row of ``table``, "nodes", "edges" or "turns"."""

    def __init__(self, table: str, message: str):
        super().__init__(message)
        self.table = table


class RoadNetwork:
    """Street graph: nodes with planar meter coordinates, directed edges.

    Coordinates are assumed pre-projected; geographic lon/lat must be
    converted before construction. ``turns`` yields the rows of a turns
    file, ``(from_edge_index, to_edge_index, penalty_s)``: extra seconds
    for a turn from one edge onto the next, which only affect the time
    metric. Nodes, edges and then turns are checked in order, and the
    first bad one is a ValueError: for an edge, one that names an unknown
    node, has a length or speed that is not finite and positive, or a
    travel time that overflows or rounds to zero; for a turn, one that
    names an unknown edge, joins non-adjacent edges, has a negative or
    non-finite penalty or repeats a pair.
    """

    def __init__(self, nodes: list[Node], edges: list[Edge], turns=()):
        isfinite, inf = math.isfinite, math.inf
        self._nodes: dict[int, Node] = {}
        for n in nodes:
            nid, x, y = n
            if nid in self._nodes:
                raise _RowError("nodes", f"duplicate node id {nid}")
            if not (isfinite(x) and isfinite(y)):
                raise _RowError("nodes", f"node {nid} has non-finite coordinates")
            self._nodes[nid] = n
        self._edges: tuple[Edge, ...] = tuple(edges)
        n_edges = len(self._edges)
        # node ids by position; sorted, so position order is id order
        self._ids = tuple(sorted(self._nodes))
        pos = self._pos = {nid: p for p, nid in enumerate(self._ids)}
        rows: list[list[tuple[int, int, float, float, float]]] = [
            [] for _ in self._ids]
        slot = [0] * n_edges  # per edge, its place in its tail's row
        # per edge, the positions of its tail and head
        tails, heads = [0] * n_edges, [0] * n_edges
        for i, (a, b, length_m, speed_kmh) in enumerate(self._edges):
            if a not in pos or b not in pos:
                raise _RowError("edges", f"edge {i} references unknown node")
            if not (0 < length_m < inf and 0 < speed_kmh < inf):
                raise _RowError(
                    "edges", f"edge {i} needs a finite positive length and "
                    f"speed, got {length_m} m at {speed_kmh} km/h")
            time_s = length_m * 3.6 / speed_kmh  # Edge.travel_time_s
            if not 0 < time_s < inf:
                raise _RowError("edges", f"edge {i} needs a finite positive "
                                f"travel time, got {time_s} s")
            tails[i] = tail = pos[a]
            heads[i] = head = pos[b]
            row = rows[tail]
            slot[i] = len(row)
            row.append((i, head, length_m, time_s, 0.0))
        # per node position, (edge, head position, length, time, 0.0) of
        # its out-edges in index order
        self._rows = [tuple(row) for row in rows]
        self._grid = _NodeGrid([(x, y) for _, x, y in map(self._nodes.get, self._ids)])
        # per edge, its head's row with each turn's penalty in the last slot,
        # and the largest penalty of a turn off it. An edge shares its head's
        # row until its first non-zero penalty gives it a list copy; in that
        # copy a turn without a penalty still shares the row's tuple. ``seen``
        # holds per edge a bit for each slot of its row a turn row has named.
        succ: list = [self._rows[h] for h in heads]
        hi, seen = [0.0] * n_edges, [0] * n_edges
        for a, b, pen in turns:
            if not (0 <= a < n_edges and 0 <= b < n_edges):
                raise _RowError("turns", "turn penalty references unknown "
                                f"edge ({a},{b})")
            if heads[a] != tails[b]:
                raise _RowError("turns", f"turn penalty ({a},{b}) joins "
                                "non-adjacent edges")
            if not 0 <= pen < inf:
                raise _RowError("turns", f"turn penalty ({a},{b}) must be finite "
                                f"and non-negative, got {pen}")
            bit = 1 << slot[b]
            if seen[a] & bit:
                raise _RowError("turns", f"turn penalty {a},{b} appears more than once")
            seen[a] |= bit
            if pen:  # the shared row already holds 0.0
                row = succ[a]
                if type(row) is tuple:
                    row = succ[a] = list(row)
                fi, v, len_f, time_f, _ = row[slot[b]]  # fi is b; keep the row's int
                row[slot[b]] = (fi, v, len_f, time_f, pen)
                if pen > hi[a]:
                    hi[a] = pen
        self._succ, self._hi = succ, hi
        self._has_turn_penalties = max(hi, default=0.0) > 0

    @property
    def node_ids(self) -> list[int]:
        return list(self._ids)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def has_turn_penalties(self) -> bool:
        return self._has_turn_penalties

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id} not in network") from None


@dataclass(frozen=True)
class CostMatrix:
    """Dense origin x destination drive time and length along optimal paths.

    ``time_s`` and ``length_m`` hold seconds and meters accumulated along
    the path that is optimal in ``metric``, so the non-objective quantity
    of a route is exact rather than re-derived from an average speed.
    ``cost`` is the table of the chosen metric itself, not a copy.
    Unreachable pairs carry :data:`UNREACHABLE` in both tables. A
    ``metric`` not in :data:`METRICS` is a ValueError.

    A matrix from :func:`cost_matrix` keeps each origin's search, cut to
    its arriving edge per node (and, for an arriving-edge search, its
    parent per edge), so :meth:`path` returns the path a cell was
    measured on; the kept searches take no part in equality or the repr.
    """

    origins: tuple[int, ...]
    destinations: tuple[int, ...]
    metric: str
    length_m: tuple[tuple[float, ...], ...]
    time_s: tuple[tuple[float, ...], ...]
    _searches: dict[int, _SearchResult] = field(
        default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")

    @property
    def cost(self) -> tuple[tuple[float, ...], ...]:
        """Optimal values in the metric: ``time_s`` or ``length_m``."""
        return self.time_s if self.metric == "time" else self.length_m

    def path(self, origin: int, destination: int) -> list[int]:
        """Node path the (origin, destination) cells were measured on.

        Raises UnknownNode for a cell the matrix lacks or kept no search
        for (a hand-built matrix), Unreachable for an UNREACHABLE cell.
        """
        search = self._searches.get(origin)
        if search is None or destination not in self.destinations:
            raise UnknownNode(f"matrix holds no path {origin} -> {destination}")
        if search._arrive[search._net._pos[destination]] is None:
            raise Unreachable(f"no directed path {origin} -> {destination}")
        return search.path_to(destination)


class _SearchResult:
    """Single-source search output, stored by node position.

    ``_arrive[p]`` is the edge by which the path node position p was
    first settled on arrived (-1 at the source, None while unsettled),
    and ``_order`` lists the settled positions in settle order.
    :meth:`path_to` walks back from a node's arriving edge to the source:
    in a node search the edge before e is the arriving edge of e's tail,
    and in an edge-state search ``_parent`` maps an edge to the arriving
    edge of the path it was last relaxed from (None in a node search,
    which has no such list). The kernel keeps two value arrays, ``best``
    (the search metric's own value) and ``other`` (the other metric along
    the same path); ``_len`` and ``_time`` name them by metric. They are
    indexed by node position in a node search, by edge (the source in the
    last slot) in an edge-state search, and ``_key[p]`` names node
    position p's state in them. ``cost``, ``length_m`` and ``time_s``
    read them into dicts over the settled node ids. :func:`cost_matrix`
    keeps only ``_arrive`` and ``_parent``.
    """

    __slots__ = ("source", "metric", "_net", "_arrive", "_parent", "_order",
                 "_len", "_time", "_key")

    def __init__(self, net: RoadNetwork, source: int, metric: str,
                 arrive: list[int | None], parent: list[int] | None,
                 order: list[int], best: list[float], other: list[float], key):
        self.source, self.metric, self._net = source, metric, net
        self._arrive, self._parent, self._order = arrive, parent, order
        self._len, self._time = (other, best) if metric == "time" else (best, other)
        self._key = key

    @property
    def cost(self) -> dict[int, float]:
        """Per-node optimal value in the search metric."""
        return self.time_s if self.metric == "time" else self.length_m

    @property
    def length_m(self) -> dict[int, float]:
        return self._by_id(self._len)

    @property
    def time_s(self) -> dict[int, float]:
        return self._by_id(self._time)

    def _by_id(self, values: list[float]) -> dict[int, float]:
        ids, key = self._net._ids, self._key
        return {ids[p]: values[key[p]] for p in self._order}

    def _row(self, values: list[float], cols: list[int]) -> tuple[float, ...]:
        """``values`` at node positions ``cols``, UNREACHABLE if unsettled."""
        arrive, key = self._arrive, self._key
        return tuple(UNREACHABLE if arrive[p] is None else values[key[p]]
                     for p in cols)

    def path_to(self, target: int) -> list[int]:
        arrive, parent, pos = self._arrive, self._parent, self._net._pos
        edges = self._net.edges
        states = len(arrive if parent is None else parent)
        edge_seq: list[int] = []
        ei = arrive[pos[target]]
        while ei != -1:
            if len(edge_seq) == states:
                raise PlannerError(f"the path links from {self.source} to "
                                   f"{target} form a cycle")
            edge_seq.append(ei)
            if parent is None:  # a node search: the arriving edge of the tail
                ei = arrive[pos[edges[ei].from_id]]
            else:
                ei = parent[ei]
        return [self.source] + [edges[ei].to_id for ei in reversed(edge_seq)]


def _search(net: RoadNetwork, source: int, metric: str,
            bound: float = math.inf) -> _SearchResult:
    """Dijkstra from ``source``; ties pop the smaller node id.

    Search states are nodes, or arriving edges when turn penalties change
    the time metric: the cheapest way to stand at a node then depends on
    the edge used to arrive. Heap entries are (cost, node position,
    arriving edge), -1 for the source; positions follow the sorted ids,
    so ties pop the smaller id. A state is pushed again only at a
    strictly lower cost, so an entry costing more than its state's best
    is stale. A node's answer is its first settled state (minimum cost,
    then smaller node id, then smaller edge index).

    There are two loops, one per state kind. Both relax the rows
    ``net._succ`` holds for the popped edge, turn penalties in them
    (``net._rows`` at the source, whose out-edges the edge-state loop
    relaxes before it starts). ``best`` holds the metric's own value per
    state and ``other`` the other metric's along the same path. The node
    loop picks the metric once per popped node, outside its row loop, and
    unpacks each row into ``(fi, v, len_f, time_f, pen)``. By distance it
    relaxes ``cost_u + len_f`` and carries ``other_u + time_f + pen``, so
    the time it reports keeps the turns of its path. By time it runs only
    without turn penalties, where those rows are the popped node's own
    ``net._rows[u]`` with every penalty 0.0, so it relaxes ``cost_u +
    time_f`` and carries ``other_u + len_f``.

    Only the edge-state loop fills an edge-indexed ``parent``. In the node
    loop a node pops live once: a push needs a strictly lower cost, so one
    entry per node costs its best, and a relaxation off a later pop costs
    no less, as lengths are positive and rounding is monotone. An edge is
    thus relaxed only when its tail settles, from the tail's arriving
    edge, so the edge before a node's settling edge e on its path is
    ``arrive[tail(e)]``. :meth:`_SearchResult.path_to` walks ``arrive``
    alone, and no node search fills a list of all edges.

    The edge-state loop pushes no arrival that cannot win. When node u
    first settles, by edge e' at cost c', ``gate[u]`` becomes
    c' + ``net._hi[e']``, the largest penalty of a turn off e' (0.0 at
    the source). Rounding is monotone and penalties are non-negative, so
    for every out-edge g of u, an arrival f costing nc >= gate[u] has
    fl(c' + pen(e', g)) <= gate[u] <= nc <= fl(nc + pen(f, g)): it loses
    every relaxation to e', ties included, and u has settled. Not pushing
    it changes no answer, path or settle order.

    Nor does it push an arrival f at a settled node v, costing nc, that
    passes the gate unless a turn off f can still win: some successor row
    (g, w) of f with c2 = nc + pen(f, g) + time(g) below both ``best[g]``
    and ``gate[w]``. During a search ``best`` and ``gate`` only decrease,
    and a pop of f relaxes its turns with the same arithmetic, so if the
    test fails when f would be pushed, the pop would relax nothing, and f
    cannot settle v. Such an f is neither pushed nor written to ``best``,
    ``other`` or ``parent``. A later arrival at f costing nc or more
    fails the same test, as rounding is monotone, and an earlier entry of
    f still in the heap costs more and relaxes nothing when popped; one
    costing less is tested afresh. Heap entries are distinct, so leaving
    some out keeps the pop order of the rest: no answer, path or settle
    order changes. The gate, one comparison, filters first; the check
    reads f's rows only for arrivals that pass it.

    ``best`` starts every state at the float just above ``bound`` (a
    non-negative number or inf), so a push needs a cost within the bound
    and nothing beyond it is ever pushed: the search settles exactly the
    nodes within the bound, with the unbounded search's values and order.
    """
    rows, succ = net._rows, net._succ
    src, n_nodes = net._pos[source], len(rows)
    arrive: list[int | None] = [None] * n_nodes
    by_edge = metric == "time" and net.has_turn_penalties
    parent = [-1] * len(net.edges) if by_edge else None
    # per node, or per edge and the source in the last slot, index -1
    n = len(net.edges) + 1 if by_edge else n_nodes
    best, other = [math.nextafter(bound, math.inf)] * n, [0.0] * n
    pop, push = heapq.heappop, heapq.heappush
    if by_edge:
        hi, gate = net._hi, [math.inf] * n_nodes
        best[-1] = gate[src] = 0.0
        arrive[src], order, heap = -1, [src], []
        for fi, v, len_f, nc, _ in rows[src]:  # 0.0 + 0.0 + time_f is time_f
            if nc < best[fi] and nc < gate[v]:
                best[fi], other[fi] = nc, len_f
                push(heap, (nc, v, fi))
        while heap:
            cost_u, u, ei = pop(heap)
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
                    if arrive[v] is not None:  # push fi only if a turn can win
                        for gi, w, _, t_g, p_g in succ[fi]:
                            c2 = nc + p_g + t_g
                            if c2 < best[gi] and c2 < gate[w]:
                                break
                        else:
                            continue
                    best[fi] = nc
                    other[fi] = len_u + len_f
                    parent[fi] = ei
                    push(heap, (nc, v, fi))
    else:
        by_time = metric == "time"
        best[src], order, heap = 0.0, [], [(0.0, src, -1)]
        while heap:
            cost_u, u, ei = pop(heap)
            if cost_u > best[u]:
                continue
            arrive[u] = ei
            order.append(u)
            other_u = other[u]
            if by_time:
                for fi, v, len_f, time_f, _ in rows[u]:
                    nc = cost_u + time_f
                    if nc < best[v]:
                        best[v], other[v] = nc, other_u + len_f
                        push(heap, (nc, v, fi))
            else:
                for fi, v, len_f, time_f, pen in rows[u] if ei == -1 else succ[ei]:
                    nc = cost_u + len_f
                    if nc < best[v]:
                        best[v], other[v] = nc, other_u + time_f + pen
                        push(heap, (nc, v, fi))
    return _SearchResult(net, source, metric, arrive, parent, order, best,
                         other, arrive if by_edge else range(n_nodes))


def shortest_path(
    net: RoadNetwork, source: int, target: int, metric: str = "time"
) -> tuple[list[int], float]:
    """Cheapest directed path from source to target under the metric.

    Returns (node sequence, total cost). Time costs include turn
    penalties; distance costs ignore them. Raises UnknownNode for absent
    ids and Unreachable when no directed path exists.
    """
    m = cost_matrix(net, [source], [target], metric)
    return m.path(source, target), m.cost[0][0]


def cost_matrix(
    net: RoadNetwork,
    origins: list[int],
    destinations: list[int],
    metric: str = "time",
) -> CostMatrix:
    """Many-to-many drive times and lengths via one search per origin.

    Paths are optimal in ``metric``; the matrix keeps each origin's
    search, cut to the links its paths are read back from, so
    :meth:`CostMatrix.path` can read them back. Unreachable pairs get
    the UNREACHABLE marker rather than raising, so partially connected
    networks still produce a usable matrix.
    """
    for nid in list(origins) + list(destinations):
        net.node(nid)  # raises UnknownNode for an id not in the network
    cols = [net._pos[d] for d in destinations]
    searches: dict[int, _SearchResult] = {}
    lengths: dict[int, tuple[float, ...]] = {}
    times: dict[int, tuple[float, ...]] = {}
    for o in origins:
        if o in searches:
            continue
        res = searches[o] = _search(net, o, metric)
        lengths[o], times[o] = res._row(res._len, cols), res._row(res._time, cols)
        res._order = res._len = res._time = res._key = None
    return CostMatrix(tuple(origins), tuple(destinations), metric,
                      tuple(lengths[o] for o in origins),
                      tuple(times[o] for o in origins), _searches=searches)


class _NodeGrid:
    """Uniform bucket grid over the node coordinates, for :func:`snap`.

    Square cells are anchored at the lower-left corner of the nodes'
    bounding box. The side is the larger of sqrt(area / nodes) and
    (longer side / nodes), so the grid spans about 3n cells at most, even
    when the box is flat. Cells hold ``(x, y, node position)``. Built once
    per network, it fills two caches as :meth:`snap` reads it: per grid
    cell, the nodes of that cell and its eight neighbours, and per point
    looked up, the ``(distance, node position)`` answer. Both only ever
    gain entries whose value is fixed by the nodes, so the grid stays
    safe to share. A network without nodes has an empty grid, which
    snaps no point.
    """

    def __init__(self, coords: list[tuple[float, float]]):
        xs = [x for x, _ in coords] or [0.0]
        ys = [y for _, y in coords] or [0.0]
        self.x0, self.y0 = min(xs), min(ys)
        w, h = max(xs) - self.x0, max(ys) - self.y0
        if not (w < math.inf and h < math.inf):  # no cell index would be finite
            raise _RowError("nodes", "node coordinates span more than the float range")
        n = len(coords) or 1
        self.side = max(math.sqrt(w * h / n), w / n, h / n) or 1.0
        # hypot and the cell indices round by a few ulps of the coordinates;
        # snap() lowers its stopping bound by 1e-12 of their size
        self.magnitude = max(map(abs, xs)) + max(map(abs, ys))
        self.cells: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
        for p, (x, y) in enumerate(coords):  # coordinates by node position
            cell = int((x - self.x0) // self.side), int((y - self.y0) // self.side)
            self.cells.setdefault(cell, []).append((x, y, p))
        self.nx = 1 + max((ix for ix, _ in self.cells), default=0)
        self.ny = 1 + max((iy for _, iy in self.cells), default=0)
        # cell -> nodes of rings 0 and 1 around it; point -> (distance, position)
        self._near: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
        self._answers: dict[tuple[float, float], tuple[float, int]] = {}

    def snap(self, points, max_dist_m: float) -> list[int]:
        """Position of the nearest node to each point, in one pass.

        Returns what a scan of every node gives per point: the node at
        the least ``math.hypot`` distance, the smallest position (so the
        smallest id) among nodes within ``_SNAP_TIE_M`` of it. The loop
        computes everything inline, with no call per point but the
        ``hypot``s and the cache lookup. Cells are read ring by ring
        outward from the point's cell: after ring r every unread node is
        more than r cell sides away, so the search ends once that exceeds
        the best distance plus the tie tolerance. For a point whose cell
        lies inside the grid, rings 0 and 1 are read from one cached list,
        and ring 2 only if a node there can still win. One pass keeps the
        least and the second least distance; only when the second is
        within the tolerance of the least are the read nodes scanned again
        for the smallest position. Each point's answer is kept, so a point
        snapped again costs one dict lookup.

        Points are taken in order, and the first that fails raises: a
        non-finite point a ValueError, a nearest node beyond
        ``max_dist_m`` a NoNodeWithinRange whose ``index`` is the point's
        position in ``points``. A NaN ``max_dist_m`` is a ValueError, and
        an empty grid given a point raises UnknownNode.
        """
        cells, near_of, answers = self.cells, self._near, self._answers
        if points and not cells:
            raise UnknownNode("network has no nodes")
        if math.isnan(max_dist_m):
            raise ValueError("cannot snap within a NaN distance")
        x0, y0, side, nx, ny = self.x0, self.y0, self.side, self.nx, self.ny
        hypot, isfinite, inf = math.hypot, math.isfinite, math.inf
        out: list[int] = []
        for i, (px, py) in enumerate(points):
            answer = answers.get((px, py))
            if answer is None:
                if not (isfinite(px) and isfinite(py)):
                    raise ValueError(f"cannot snap the non-finite point {points[i]}")
                cx, cy = int((px - x0) // side), int((py - y0) // side)
                if 0 <= cx < nx and 0 <= cy < ny:
                    near = near_of.get((cx, cy))
                    if near is None:  # the nodes of rings 0 and 1
                        near = near_of[cx, cy] = [nd for iy in (cy - 1, cy, cy + 1)
                                                  for ix in (cx - 1, cx, cx + 1)
                                                  for nd in cells.get((ix, iy), ())]
                    r = 2
                else:
                    near, r = [], max(-cx, cx - nx + 1, -cy, cy - ny + 1)
                best, second, read = inf, inf, near
                while True:
                    for x, y, p in read:
                        d = hypot(x - px, y - py)
                        if d < best:
                            best, second, nid = d, best, p
                        elif d < second:
                            second = d
                    # every node past ring r - 1 is more than r - 1 cell sides away
                    if ((r - 1) * side - 1e-12 * (abs(px) + abs(py) + self.magnitude)
                            > best + _SNAP_TIE_M
                            or r > max(cx, nx - 1 - cx, cy, ny - 1 - cy)):
                        break
                    # the cells at Chebyshev distance r, clipped to the grid
                    read = [nd for iy in range(max(cy - r, 0), min(cy + r + 1, ny))
                            for ix in (range(max(cx - r, 0), min(cx + r + 1, nx))
                                       if iy in (cy - r, cy + r) else (cx - r, cx + r))
                            for nd in cells.get((ix, iy), ())]
                    near, r = near + read, r + 1
                if second <= best + _SNAP_TIE_M:  # a tie: the smallest position
                    nid = min(p for x, y, p in near
                              if hypot(x - px, y - py) <= best + _SNAP_TIE_M)
                answer = answers[px, py] = best, nid
            if answer[0] > max_dist_m:
                raise NoNodeWithinRange(f"nearest node is {answer[0]:.1f} m away, "
                                        f"limit {max_dist_m:.1f} m", i)
            out.append(answer[1])
        return out


def snap(net: RoadNetwork, point: tuple[float, float], max_dist_m: float) -> int:
    """Nearest network node to a planar point; ties go to the smaller id.

    The one-point case of the network grid's one-pass
    :meth:`_NodeGrid.snap`, so it returns what a scan of every node would:
    the node at the least ``math.hypot`` distance, the smaller id among
    nodes within ``_SNAP_TIE_M`` of it. The grid keeps its answer for
    each point, so snapping a point again searches nothing; the
    finiteness check and the ``max_dist_m`` limit still apply on every
    call. A node exactly ``max_dist_m`` away still snaps; beyond it,
    NoNodeWithinRange gives the distance to the nearest node. A NaN
    ``max_dist_m`` or a non-finite point is a ValueError, and a network
    without nodes raises UnknownNode.
    """
    return net._ids[net._grid.snap([point], max_dist_m)[0]]


# --- file interfaces ---

NODE_HEADER = ["id", "x_m", "y_m"]
EDGE_HEADER = ["from_id", "to_id", "length_m", "speed_kmh"]
TURN_HEADER = ["from_edge_index", "to_edge_index", "penalty_s"]


def _read_table(path: str, header: list[str], what: str, convert):
    """Yield ``convert`` of each non-blank row of the UTF-8 CSV table at
    ``path``, one row at a time as the file is read.

    A file that cannot be read or decoded, a first row other than
    ``header``, a row the csv module cannot parse (a field longer than
    its field size limit), a row with more fields than ``header``, or a
    row ``convert`` fails on with a ValueError or an IndexError is a
    DataError naming the path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != header:
                raise DataError(f"{path}: expected header {','.join(header)}")
            for row in rows:
                if len(row) > len(header):
                    raise DataError(f"{path}: line {rows.line_num}: {len(row)} "
                                    f"fields, the header has {len(header)}")
                if row:
                    try:
                        item = convert(row)
                    except (ValueError, IndexError) as exc:
                        raise DataError(f"{path}: bad {what} row {row}") from exc
                    yield item
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {rows.line_num}: {exc}") from exc


def _write_table(path: str, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` as the UTF-8 CSV table at ``path``,
    the format :func:`_read_table` reads. A float is written as its
    ``repr``, which reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def load_nodes(path: str) -> list[Node]:
    return list(_read_table(path, NODE_HEADER, "node",
                            lambda r: Node(int(r[0]), float(r[1]), float(r[2]))))


def load_edges(path: str) -> list[Edge]:
    return list(_read_table(
        path, EDGE_HEADER, "edge",
        lambda r: Edge(int(r[0]), int(r[1]), float(r[2]), float(r[3]))))


def load_network(
    nodes_path: str, edges_path: str, turns_path: str | None = None
) -> RoadNetwork:
    """The network of the nodes and edges files, the turns file's rows
    streamed into it as read; a bad row is a DataError naming its file."""
    nodes, edges = load_nodes(nodes_path), load_edges(edges_path)
    turns = () if not turns_path else _read_table(
        turns_path, TURN_HEADER, "turn-penalty",
        lambda r: (int(r[0]), int(r[1]), float(r[2])))
    try:
        return RoadNetwork(nodes, edges, turns)
    except _RowError as exc:
        path = {"nodes": nodes_path, "edges": edges_path, "turns": turns_path}
        raise DataError(f"{path[exc.table]}: {exc}") from exc


def write_nodes(nodes: list[Node], path: str) -> None:
    _write_table(path, NODE_HEADER, nodes)


def write_edges(edges: list[Edge], path: str) -> None:
    _write_table(path, EDGE_HEADER, edges)
