"""Demand aggregation and collection stop-point placement.

Households are aggregated into demand points (buildings with a daily
waste mass), and stops are opened on network nodes by a greedy
largest-uncovered-mass rule until every demand point sits within the
service radius of exactly one stop. Per-stop load is capped; a lone
demand heavier than the cap gets its own stop, an overflow stop.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (DataError, NegativeUnits, NoNodeWithinRange, PlannerError,
                     UncoverableDemand)
from .network import RoadNetwork, _read_table, _search, _write_table

log = logging.getLogger(__name__)

_RADIUS_TOL_M = 1e-9


class DemandPoint(NamedTuple):
    id: int
    x_m: float
    y_m: float
    dwelling_units: int
    waste_kg_day: float


@dataclass
class StopPoint:
    """A stop at a network node and the demand ids it serves. Whether it
    is an overflow stop follows from these fields (see verify_coverage)."""

    id: int
    node: int
    assigned_demand_kg: float
    service_time_s: float
    covered_demand_ids: list[int]


#: How the service radius is measured: along the roads or straight.
DISTANCE_MODES = ("network", "euclidean")


@dataclass(frozen=True)
class CoverageConfig:
    radius_m: float = 300.0
    distance_mode: str = "network"
    max_stop_load_kg: float = 520.0
    candidate_nodes: tuple[int, ...] | None = None
    service_time_s: float = 1800.0

    def __post_init__(self):
        for name in ("radius_m", "max_stop_load_kg"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.service_time_s < math.inf:
            raise ValueError("service_time_s must be finite and non-negative, "
                             f"got {self.service_time_s}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError("distance_mode must be "
                             f"{' or '.join(map(repr, DISTANCE_MODES))}, "
                             f"got {self.distance_mode!r}")
        seen: set[int] = set()
        for node in self.candidate_nodes or ():
            if node in seen:
                raise ValueError(f"candidate_nodes lists node {node} twice")
            seen.add(node)


def aggregate_demand(
    buildings: list[tuple[int, float, float, int]], rate_kg_per_unit_day: float,
) -> list[DemandPoint]:
    """Turn (id, x, y, dwelling_units) building rows into demand points."""
    if not 0 < rate_kg_per_unit_day < math.inf:
        raise ValueError("generation rate must be finite and positive, "
                         f"got {rate_kg_per_unit_day}")
    out = []
    for bid, x, y, units in buildings:
        if units < 0:
            raise NegativeUnits(f"building {bid} has {units} dwelling units")
        out.append(DemandPoint(bid, x, y, units, units * rate_kg_per_unit_day))
    return out


def _stop_distances(
    net: RoadNetwork, demands: list[DemandPoint], cfg: CoverageConfig,
    candidates: list[int],
) -> tuple[list[list[int]], list[list[float]]]:
    """The demand points in each candidate node's radius, and their meters.

    Returns two lists aligned with ``candidates``: per candidate, the
    ascending input positions of the demands within ``radius_m`` (plus
    ``_RADIUS_TOL_M``), and their meters in the same order. Network mode:
    directed shortest-path meters from the candidate to the demand's
    snapped node. Every demand snaps in one call of the network grid's
    one-pass :meth:`~mswplan.network._NodeGrid.snap`; the first that
    fails, in input order, raises: a non-finite point a ValueError, one
    with no node within ``radius_m`` an UncoverableDemand naming it. The
    grid keeps each point's answer, so the audit's call reads the nodes
    that stop placement snapped to. Each candidate's search stops at the
    radius, which is exact because no distance beyond it is ever
    compared; it holds only the nodes it settled within the radius.
    Euclidean mode: straight line from the candidate node to the demand
    coordinates.
    """
    reach = cfg.radius_m + _RADIUS_TOL_M
    radius: list[list[int]] = []
    meters: list[list[float]] = []
    if cfg.distance_mode == "euclidean":
        for c in candidates:
            node = net.node(c)
            ps, ms = [], []
            for pos, d in enumerate(demands):
                m = math.hypot(node.x_m - d.x_m, node.y_m - d.y_m)
                if m <= reach:
                    ps.append(pos)
                    ms.append(m)
            radius.append(ps)
            meters.append(ms)
        return radius, meters
    # per input position, the node position it snapped to, in one pass;
    # per node position, the input positions of the demands snapped to it
    try:
        node_of = net._grid.snap([(d.x_m, d.y_m) for d in demands], cfg.radius_m)
    except NoNodeWithinRange as exc:
        raise UncoverableDemand(f"demand {demands[exc.index].id} does not snap to "
                                f"the network within {cfg.radius_m} m") from exc
    at_node: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for pos, p in enumerate(node_of):
        at_node[p].append(pos)
    for c in candidates:
        net.node(c)  # UnknownNode for a candidate off the network
        # a distance search is a node search: lengths by node position
        res = _search(net, c, "distance", reach)
        length = res._len
        # one pass over the settled order; sorting restores the input order
        ps = sorted([pos for p in res._order for pos in at_node[p]])
        radius.append(ps)
        meters.append([length[node_of[pos]] for pos in ps])
    return radius, meters


def _demand_positions(demands: list[DemandPoint]) -> dict[int, int]:
    """Demand id -> input position.

    A repeated id, or a mass that is negative or not finite, is a
    ValueError naming the demand.
    """
    pos_of: dict[int, int] = {}
    for p, d in enumerate(demands):
        if d.id in pos_of:
            raise ValueError(f"demand id {d.id} appears more than once")
        if not 0 <= d.waste_kg_day < math.inf:
            raise ValueError(f"demand {d.id} has mass {d.waste_kg_day} kg, "
                             "not a finite non-negative number")
        pos_of[d.id] = p
    return pos_of


def place_stops(
    net: RoadNetwork, demands: list[DemandPoint], cfg: CoverageConfig
) -> list[StopPoint]:
    """Open stops greedily until every demand point is covered.

    Each round opens a stop at the candidate node whose radius contains
    the largest uncovered waste mass (ties: smaller node id) and assigns
    those demands nearest-first while the load cap allows; leftovers stay
    uncovered and may trigger another stop, possibly at the same node.
    When every coverable demand left has zero mass, so no candidate
    gains, the smallest-id candidate covering one of them opens.

    Gains are evaluated lazily (the lazy greedy of Minoux 1978, in an
    exact form). Each candidate keeps a list of input positions of its
    radius, in input order, that holds every uncovered one, and a key:
    ``sum`` of the masses of that list when the key was set. A heap
    orders the candidates with a non-empty list by ``(-key, candidate
    index)``. Each round filters the top's list down to the uncovered
    positions until that drops nothing, re-keying the top (or dropping
    it, once its list is empty) each time it does. The top is then
    fresh: its key is the float a full re-sum over its uncovered demands
    in input order gives, its gain.

    Why the fresh top is the eager pick: masses are finite and
    non-negative, and ``sum`` adds left to right (as in CPython 3.11;
    3.12 compensates the rounding, which this argument does not cover).
    Rounding is monotone, so x <= y gives fl(x + w) <= fl(y + w), and
    fl(y + w) >= y for w >= 0: step by step, the sum of an in-order
    subset of the terms is never larger than the sum of them all. Lists
    only shrink, so every key bounds its candidate's gain from above,
    and a candidate out of the heap has gain 0. The fresh top's gain is
    therefore the largest, and an earlier candidate of equal gain would
    have a key at least as large and sort above it: the top is the first
    candidate, in candidate order, of the largest gain, which a
    strict-greater scan of every gain picks. When that gain is 0, any
    earlier candidate still in the heap would sort above it too, so the
    top is the first candidate with an uncovered demand, the zero-mass
    rule. An empty heap leaves the uncovered demands uncoverable.

    A round always takes an uncovered demand when the keys and lists
    agree; one that takes none would repeat forever, so it raises
    PlannerError naming the picked node. A demand id given twice, or a
    mass that is negative or not finite, is a ValueError: stops list
    demands by id, and the bound needs the masses.
    """
    candidates = sorted(cfg.candidate_nodes) if cfg.candidate_nodes else net.node_ids
    if not candidates:
        raise UncoverableDemand("candidate node set is empty")
    _demand_positions(demands)  # a repeated id or a bad mass raises
    radius, meters = _stop_distances(net, demands, cfg, candidates)
    ids = [d.id for d in demands]
    weight = [d.waste_kg_day for d in demands]
    # per candidate, its radius positions that are uncovered or were
    # covered since its key was set
    kept = list(radius)
    heap = [(-sum([weight[p] for p in ps]), k)
            for k, ps in enumerate(radius) if ps]
    heapq.heapify(heap)
    uncovered = set(range(len(demands)))
    stops: list[StopPoint] = []
    while uncovered:
        # refresh the top until filtering its list drops nothing
        while heap:
            best = heap[0][1]
            ps = kept[best]
            left = [p for p in ps if p in uncovered]
            if len(left) == len(ps):
                break
            kept[best] = left
            if left:
                heapq.heapreplace(heap, (-sum([weight[p] for p in left]), best))
            else:
                heapq.heappop(heap)
        else:
            stranded = sorted(ids[p] for p in uncovered)
            raise UncoverableDemand(
                f"no candidate within {cfg.radius_m} m covers demands {stranded}"
            )
        best_node = candidates[best]
        eligible = sorted([(m, ids[p], p)
                           for p, m in zip(radius[best], meters[best])
                           if p in uncovered])
        taken: list[int] = []
        load = 0.0
        for _, _, p in eligible:
            w = weight[p]
            if not taken and w > cfg.max_stop_load_kg:
                taken = [p]
                log.warning(
                    "demand %s (%.1f kg) exceeds the %.1f kg stop cap; "
                    "dedicated stop opened at node %s",
                    ids[p], w, cfg.max_stop_load_kg, best_node,
                )
                break
            if load + w <= cfg.max_stop_load_kg:
                taken.append(p)
                load += w
        if uncovered.isdisjoint(taken):
            raise PlannerError(f"the stop picked at node {best_node} covers no "
                               "uncovered demand")
        stops.append(
            StopPoint(
                id=len(stops),
                node=best_node,
                assigned_demand_kg=math.fsum(weight[p] for p in taken),
                service_time_s=cfg.service_time_s,
                covered_demand_ids=[ids[p] for p in taken],
            )
        )
        uncovered.difference_update(taken)
    return stops


@dataclass
class CoverageReport:
    uncovered_ids: list[int]
    max_load_kg: float
    load_histogram: dict[int, int]  # bin start (kg, width 100) -> stop count
    overflow_stop_ids: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.uncovered_ids


def verify_coverage(
    stops: list[StopPoint],
    demands: list[DemandPoint],
    net: RoadNetwork,
    cfg: CoverageConfig,
) -> CoverageReport:
    """Audit a stop set: radius compliance, loads, and full coverage.

    Raises DataError for a stop that lists an id no demand point has,
    whose ``assigned_demand_kg`` is not the mass of the demands it lists
    (relative tolerance 1e-9, absolute 1e-6), or that lists two or more
    demands and exceeds ``max_stop_load_kg`` by more than that (a lone
    demand may: an overflow stop); PlannerError for a
    demand listed twice, under two stops or twice under one; and
    ValueError for a demand id given twice or a mass that is negative or
    not finite. A listed demand counts as covered when its input position
    is in the radius of its stop's node. The overflow stops are those
    that list one demand and are assigned more than ``max_stop_load_kg``.
    """
    pos_of = _demand_positions(demands)
    stop_of: list[int | None] = [None] * len(demands)  # per position, its stop
    for s in stops:
        for i in s.covered_demand_ids:
            if i not in pos_of:
                raise DataError(f"stop {s.id} lists demand {i}, which is not "
                                "a demand point")
            if stop_of[pos_of[i]] is not None:
                raise PlannerError(f"demand {i} is listed under stop "
                                   f"{stop_of[pos_of[i]]} and again under stop {s.id}")
            stop_of[pos_of[i]] = s.id
        mass = math.fsum(demands[pos_of[i]].waste_kg_day
                         for i in s.covered_demand_ids)
        if not math.isclose(s.assigned_demand_kg, mass, rel_tol=1e-9,
                            abs_tol=1e-6):
            raise DataError(
                f"stop {s.id} has assigned_kg {s.assigned_demand_kg} but its "
                f"demands weigh {mass} kg; was it planned at another "
                "generation_rate_kg_unit_day?")
        # past the cap by more than the mass check's isclose tolerance
        load, n = s.assigned_demand_kg, len(s.covered_demand_ids)
        if n > 1 and load - cfg.max_stop_load_kg > max(1e-9 * load, 1e-6):
            raise DataError(f"stop {s.id} lists {n} demands and is assigned {load} "
                            f"kg, over the {cfg.max_stop_load_kg} kg max_stop_load_kg")
    nodes = sorted({s.node for s in stops})
    radius = _stop_distances(net, demands, cfg, nodes)[0] if nodes else []
    within = dict(zip(nodes, radius))
    covered: set[int] = set()
    for s in stops:
        reach = set(within[s.node])
        covered.update(pos_of[i] for i in s.covered_demand_ids
                       if pos_of[i] in reach)
    uncovered = sorted(d.id for p, d in enumerate(demands) if p not in covered)
    loads = [s.assigned_demand_kg for s in stops]
    histogram: dict[int, int] = {}
    for load in loads:
        bin_start = int(load // 100) * 100
        histogram[bin_start] = histogram.get(bin_start, 0) + 1
    return CoverageReport(
        uncovered_ids=uncovered,
        max_load_kg=max(loads, default=0.0),
        load_histogram=dict(sorted(histogram.items())),
        overflow_stop_ids=[s.id for s in stops if len(s.covered_demand_ids) == 1
                           and s.assigned_demand_kg > cfg.max_stop_load_kg],
    )


# --- file interfaces ---

BUILDING_HEADER = ["id", "x_m", "y_m", "dwelling_units"]
STOP_HEADER = ["stop_id", "node_id", "assigned_kg", "service_time_s", "covered_ids"]


def load_buildings(path: str) -> list[tuple[int, float, float, int]]:
    rows = list(_read_table(path, BUILDING_HEADER, "building",
                            lambda r: (int(r[0]), float(r[1]), float(r[2]), int(r[3]))))
    seen: set[int] = set()
    for bid, x, y, _ in rows:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}: building {bid} has non-finite coordinates")
        if bid in seen:
            raise DataError(f"{path}: building id {bid} appears more than once")
        seen.add(bid)
    return rows


def write_buildings(rows: list[tuple[int, float, float, int]], path: str) -> None:
    _write_table(path, BUILDING_HEADER, rows)


def write_stops(stops: list[StopPoint], path: str) -> None:
    _write_table(path, STOP_HEADER, (
        (s.id, s.node, s.assigned_demand_kg, s.service_time_s,
         ";".join(map(str, s.covered_demand_ids))) for s in stops))


def load_stops(path: str) -> list[StopPoint]:
    stops = list(_read_table(
        path, STOP_HEADER, "stop",
        lambda r: StopPoint(int(r[0]), int(r[1]), float(r[2]), float(r[3]),
                            [int(t) for t in r[4].split(";") if t != ""])))
    stop_ids: set[int] = set()
    stop_of: dict[int, int] = {}  # demand id -> the stop listing it
    for s in stops:
        for name, value in (("assigned_kg", s.assigned_demand_kg),
                            ("service_time_s", s.service_time_s)):
            if not 0 <= value < math.inf:
                raise DataError(f"{path}: stop {s.id} {name} {value} is not a "
                                "finite non-negative number")
        if s.id in stop_ids:
            raise DataError(f"{path}: stop {s.id} is listed twice")
        stop_ids.add(s.id)
        for d in s.covered_demand_ids:
            if d in stop_of:
                raise DataError(f"{path}: demand {d} is listed under stop "
                                f"{stop_of[d]} and again under stop {s.id}")
            stop_of[d] = s.id
    return stops
