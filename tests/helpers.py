"""Shared test utilities: instance generators and independent oracles.

The oracles here deliberately avoid the library's own algorithms:
shortest paths are checked by exhaustive simple-path enumeration, fleet
sizing by exhaustive bin assignment, and stop placement by exhaustive
set cover.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import combinations

from mswplan.coverage import StopPoint
from mswplan.network import CostMatrix, Edge, Node, RoadNetwork


def run_under_ascii_locale(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` with ``src/`` importable, under the C locale with
    UTF-8 mode off, where Python's default file encoding is ASCII."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def random_graph(rng, max_nodes: int = 10, max_edges: int = 25) -> RoadNetwork:
    n = rng.randint(2, max_nodes)
    ids = list(range(1, n + 1))
    nodes = [Node(i, rng.uniform(0, 5000), rng.uniform(0, 5000)) for i in ids]
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a == b:
            continue
        edges.append(
            Edge(a, b, rng.uniform(50, 3000),
                 rng.choice([20.0, 30.0, 40.0, 50.0, 60.0]))
        )
    return RoadNetwork(nodes, edges)


def min_cost_by_enumeration(net: RoadNetwork, source: int, target: int,
                            metric: str) -> float | None:
    """Cheapest simple path by depth-first enumeration; None if cut off.

    Costs accumulate left-to-right along the path, the same association
    a label-setting search uses, so agreement can be asserted exactly.
    """
    if source == target:
        return 0.0
    best: float | None = None

    def weight(e: Edge) -> float:
        return e.travel_time_s if metric == "time" else e.length_m

    def dfs(u: int, cost: float, seen: frozenset[int]) -> None:
        nonlocal best
        if u == target:
            if best is None or cost < best:
                best = cost
            return
        for e in net.edges:
            if e.from_id != u or e.to_id in seen:
                continue
            dfs(e.to_id, cost + weight(e), seen | {e.to_id})

    dfs(source, 0.0, frozenset({source}))
    return best


def uturn_and_bend_penalties(nodes: list[Node], edges: list[Edge],
                             u_turn_s: float = 60.0, bend_s: float = 10.0
                             ) -> dict[tuple[int, int], float]:
    """``{(in edge, out edge): seconds}`` in edge order: ``u_turn_s`` on
    every turn back to the tail, ``bend_s`` on every other turn that
    changes heading (a non-zero cross product of the two edges)."""
    xy = {n.id: (n.x_m, n.y_m) for n in nodes}
    leaving: dict[int, list[int]] = {}
    for j, e in enumerate(edges):
        leaving.setdefault(e.from_id, []).append(j)

    def heading(e: Edge) -> tuple[float, float]:
        return (xy[e.to_id][0] - xy[e.from_id][0], xy[e.to_id][1] - xy[e.from_id][1])

    pens = {}
    for i, a in enumerate(edges):
        ax, ay = heading(a)
        for j in leaving.get(a.to_id, ()):
            bx, by = heading(edges[j])
            if edges[j].to_id == a.from_id:
                pens[i, j] = u_turn_s
            elif ax * by - ay * bx != 0:
                pens[i, j] = bend_s
    return pens


def turn_rows(pens: dict[tuple[int, int], float]) -> list[tuple[int, int, float]]:
    """The ``(from_edge_index, to_edge_index, penalty_s)`` rows of a turns
    file holding ``pens``, in the dict's order."""
    return [(a, b, pen) for (a, b), pen in pens.items()]


def matrix_from_points(points: dict[int, tuple[float, float]],
                       speed_kmh: float = 40.0,
                       metric: str = "time") -> CostMatrix:
    """Euclidean cost matrix over labeled points (node id -> (x, y))."""
    ids = sorted(points)

    def dist(a: int, b: int) -> float:
        ax, ay = points[a]
        bx, by = points[b]
        return math.hypot(ax - bx, ay - by)

    lengths = [[dist(a, b) for b in ids] for a in ids]
    times = [[d * 3.6 / speed_kmh for d in row] for row in lengths]
    return CostMatrix(
        origins=tuple(ids),
        destinations=tuple(ids),
        metric=metric,
        length_m=tuple(tuple(r) for r in lengths),
        time_s=tuple(tuple(r) for r in times),
    )


def make_stop(sid: int, node: int, demand_kg: float,
              service_s: float = 1800.0) -> StopPoint:
    return StopPoint(
        id=sid,
        node=node,
        assigned_demand_kg=demand_kg,
        service_time_s=service_s,
        covered_demand_ids=[],
    )


def min_bins_exhaustive(durations: list[float], shift_s: float) -> int:
    """Fewest shift-length bins holding all durations, by full search."""
    n = len(durations)
    items = sorted(durations, reverse=True)

    for k in range(1, n + 1):
        loads = [0.0] * k

        def place(i: int) -> bool:
            if i == n:
                return True
            tried: set[float] = set()
            for b in range(k):
                key = round(loads[b], 9)
                if key in tried:
                    continue
                tried.add(key)
                if loads[b] + items[i] <= shift_s + 1e-9:
                    loads[b] += items[i]
                    if place(i + 1):
                        return True
                    loads[b] -= items[i]
            return False

        if place(0):
            return k
    return n


def min_cover_size_exhaustive(cover: dict[int, set[int]],
                              universe: set[int]) -> int | None:
    """Smallest number of candidate sets whose union covers the universe."""
    keys = sorted(cover)
    for k in range(1, len(keys) + 1):
        for combo in combinations(keys, k):
            hit: set[int] = set()
            for c in combo:
                hit |= cover[c]
            if universe <= hit:
                return k
    return None
