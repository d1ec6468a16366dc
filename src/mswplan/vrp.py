"""Capacitated multi-trip vehicle routing over the stop set.

Construction is Clarke-Wright savings, polished by 2-opt (within trips)
and Or-opt (segments of 1-2 stops relocated within or across trips),
plus a few seeded random-insertion restarts; the best candidate wins by
(cost, restart index). Trips are then packed onto trucks first-fit-
decreasing against the working shift. A full enumeration solver over
partitions and orderings doubles as the optimality oracle for small
instances.

The objective is total drive cost (seconds or meters) over all trips.
Per-stop service time is constant for a fixed stop set and depot unload
time only rewards merging trips, which shorter drive cost already does,
so neither term can change the argmin.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from itertools import permutations

from .coverage import StopPoint
from .errors import (
    InfeasibleStop,
    ShiftTooShort,
    TooLarge,
    UnknownNode,
    UnreachableStop,
)
from .network import CostMatrix

_EPS = 1e-9

OBJECTIVES = ("time", "distance")


@dataclass(frozen=True)
class FleetSpec:
    """Truck capacity, depot unload time and working shift.

    Per-stop service time is a property of each stop, set by
    ``CoverageConfig.service_time_s``.
    """

    capacity_kg: float = 4000.0
    unload_s: float = 900.0
    shift_s: float = 28800.0

    def __post_init__(self):
        for name in ("capacity_kg", "unload_s", "shift_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Depot:
    node: int


@dataclass
class Trip:
    """One depot-to-depot tour: visits stop_ids in order, then unloads."""

    stop_ids: list[int]
    load_kg: float
    drive_time_s: float
    service_time_s: float
    unload_s: float
    distance_m: float

    @property
    def total_time_s(self) -> float:
        return self.drive_time_s + self.service_time_s + self.unload_s


@dataclass
class RoutePlan:
    trucks: list[tuple[int, list[Trip]]]
    objective: str
    depot_node: int
    stops: dict[int, StopPoint]

    @property
    def fleet_size(self) -> int:
        return sum(1 for _, trips in self.trucks if trips)

    @property
    def n_trips(self) -> int:
        return sum(len(trips) for _, trips in self.trucks)

    def all_trips(self) -> list[Trip]:
        return [t for _, trips in self.trucks for t in trips]

    @property
    def total_distance_m(self) -> float:
        return sum(t.distance_m for t in self.all_trips())

    @property
    def total_drive_time_s(self) -> float:
        return sum(t.drive_time_s for t in self.all_trips())

    @property
    def total_service_time_s(self) -> float:
        return sum(t.service_time_s for t in self.all_trips())

    @property
    def total_unload_s(self) -> float:
        return sum(t.unload_s for t in self.all_trips())

    @property
    def total_work_time_s(self) -> float:
        return sum(t.total_time_s for t in self.all_trips())

    @property
    def cost(self) -> float:
        """Objective value: total drive seconds or meters."""
        if self.objective == "time":
            return self.total_drive_time_s
        return self.total_distance_m

    def stop_node(self, stop_id: int) -> int:
        return self.stops[stop_id].node


class _Ctx:
    """Pre-indexed costs and stop attributes for one solver run."""

    def __init__(self, matrix: CostMatrix, stops: list[StopPoint],
                 depot: Depot, fleet: FleetSpec, objective: str):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if matrix.metric != objective:
            raise ValueError(
                f"matrix metric {matrix.metric!r} does not match objective "
                f"{objective!r}"
            )
        # bound once: drive_cost is the local-search hot loop
        self._cost = matrix.cost
        self._time = matrix.time_s
        self._len = matrix.length_m
        self.fleet = fleet
        self.objective = objective
        self.depot = depot.node
        self.stops = {s.id: s for s in stops}
        self.node_of = {s.id: s.node for s in stops}
        self._row = {nid: i for i, nid in enumerate(matrix.origins)}
        self._col = {nid: i for i, nid in enumerate(matrix.destinations)}
        for nid in [self.depot] + sorted(set(self.node_of.values())):
            if nid not in self._row or nid not in self._col:
                raise UnknownNode(f"node {nid} missing from the cost matrix")

    def c(self, a: int, b: int) -> float:
        return self._cost[self._row[a]][self._col[b]]

    def t(self, a: int, b: int) -> float:
        return self._time[self._row[a]][self._col[b]]

    def l(self, a: int, b: int) -> float:
        return self._len[self._row[a]][self._col[b]]

    def _legs(self, seq: list[int]) -> list[tuple[int, int]]:
        nodes = [self.depot] + [self.node_of[s] for s in seq] + [self.depot]
        return list(zip(nodes[:-1], nodes[1:]))

    def drive_cost(self, seq: list[int]) -> float:
        return sum(self.c(a, b) for a, b in self._legs(seq))

    def drive_time(self, seq: list[int]) -> float:
        return sum(self.t(a, b) for a, b in self._legs(seq))

    def drive_len(self, seq: list[int]) -> float:
        return sum(self.l(a, b) for a, b in self._legs(seq))

    def load(self, seq: list[int]) -> float:
        return math.fsum(self.stops[s].assigned_demand_kg for s in seq)

    def service(self, seq: list[int]) -> float:
        return sum(self.stops[s].service_time_s for s in seq)

    def duration(self, seq: list[int]) -> float:
        return self.drive_time(seq) + self.service(seq) + self.fleet.unload_s

    def shift_ok(self, seq: list[int]) -> bool:
        return self.duration(seq) <= self.fleet.shift_s + _EPS

    def load_ok(self, seq: list[int]) -> bool:
        return self.load(seq) <= self.fleet.capacity_kg + _EPS

    def build_trip(self, seq: list[int]) -> Trip:
        if not seq:
            raise ValueError("trip needs at least one stop")
        if len(set(seq)) != len(seq):
            raise ValueError(f"duplicate stops in trip {seq}")
        return Trip(
            stop_ids=list(seq),
            load_kg=self.load(seq),
            drive_time_s=self.drive_time(seq),
            service_time_s=self.service(seq),
            unload_s=self.fleet.unload_s,
            distance_m=self.drive_len(seq),
        )


def _validate_instance(ctx: _Ctx) -> None:
    for sid in sorted(ctx.stops):
        stop = ctx.stops[sid]
        if stop.assigned_demand_kg > ctx.fleet.capacity_kg + _EPS:
            raise InfeasibleStop(
                f"stop {sid} demand {stop.assigned_demand_kg:.1f} kg exceeds "
                f"capacity {ctx.fleet.capacity_kg:.1f} kg"
            )
    nodes = [ctx.depot] + sorted(set(ctx.node_of.values()))
    for a in nodes:
        for b in nodes:
            if math.isinf(ctx.c(a, b)):
                raise UnreachableStop(f"no route between nodes {a} and {b}")
    for sid in sorted(ctx.stops):
        if not ctx.shift_ok([sid]):
            raise ShiftTooShort(
                f"serving stop {sid} alone takes {ctx.duration([sid]):.0f} s, "
                f"longer than the {ctx.fleet.shift_s:.0f} s shift"
            )


def _seq_feasible(ctx: _Ctx, seq: list[int]) -> bool:
    return ctx.load_ok(seq) and ctx.shift_ok(seq)


def clarke_wright(
    matrix: CostMatrix,
    stops: list[StopPoint],
    depot: Depot,
    fleet: FleetSpec,
    objective: str = "time",
) -> list[Trip]:
    """Savings construction: merge routes in descending s(i,j) order.

    s(i,j) = c(depot,i) + c(j,depot) - c(i,j); a merge joins the route
    ending at i to the route starting at j when capacity and shift
    allow. Ties are broken by (i, j) id order.
    """
    ctx = _Ctx(matrix, stops, depot, fleet, objective)
    _validate_instance(ctx)
    return [ctx.build_trip(seq) for seq in _clarke_wright_seqs(ctx)]


def _clarke_wright_seqs(ctx: _Ctx) -> list[list[int]]:
    ids = sorted(ctx.stops)
    routes: dict[int, list[int]] = {sid: [sid] for sid in ids}
    head_of = {sid: sid for sid in ids}  # stop -> route id where it is first
    tail_of = {sid: sid for sid in ids}  # stop -> route id where it is last
    savings = []
    for i in ids:
        for j in ids:
            if i == j:
                continue
            ni, nj = ctx.node_of[i], ctx.node_of[j]
            s = ctx.c(ctx.depot, ni) + ctx.c(nj, ctx.depot) - ctx.c(ni, nj)
            savings.append((s, i, j))
    savings.sort(key=lambda t: (-t[0], t[1], t[2]))
    for s, i, j in savings:
        if s <= 0:
            break
        ra = tail_of.get(i)
        rb = head_of.get(j)
        if ra is None or rb is None or ra == rb:
            continue
        merged = routes[ra] + routes[rb]
        if not _seq_feasible(ctx, merged):
            continue
        routes[ra] = merged
        del routes[rb]
        del tail_of[i]
        del head_of[j]
        tail_of[merged[-1]] = ra
        head_of[merged[0]] = ra
    return _canonical(list(routes.values()))


def _canonical(seqs: list[list[int]]) -> list[list[int]]:
    """Order trips by their smallest stop id; drops empties."""
    return sorted((s for s in seqs if s), key=min)


def _cheapest_insertion_seqs(ctx: _Ctx, order: list[int]) -> list[list[int]]:
    seqs: list[list[int]] = []
    for sid in order:
        best: tuple[float, int, int] | None = None
        node = ctx.node_of[sid]
        for ti, seq in enumerate(seqs):
            nodes = [ctx.depot] + [ctx.node_of[s] for s in seq] + [ctx.depot]
            for pos in range(len(seq) + 1):
                a, b = nodes[pos], nodes[pos + 1]
                delta = ctx.c(a, node) + ctx.c(node, b) - ctx.c(a, b)
                if best is not None and delta >= best[0]:
                    continue
                cand = seq[:pos] + [sid] + seq[pos:]
                if _seq_feasible(ctx, cand):
                    best = (delta, ti, pos)
        if best is None:
            seqs.append([sid])
        else:
            _, ti, pos = best
            seqs[ti] = seqs[ti][:pos] + [sid] + seqs[ti][pos:]
    return seqs


def _improve_seqs(ctx: _Ctx, seqs: list[list[int]], max_moves: int) -> list[list[int]]:
    """First-improvement descent with 2-opt and Or-opt moves."""
    seqs = [list(s) for s in seqs if s]
    moves = 0

    def try_two_opt() -> bool:
        for t, seq in enumerate(seqs):
            n = len(seq)
            if n < 2:
                continue
            base = ctx.drive_cost(seq)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    cand = seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]
                    if ctx.drive_cost(cand) < base - _EPS and ctx.shift_ok(cand):
                        seqs[t] = cand
                        return True
        return False

    def try_or_opt() -> bool:
        for a, seq_a in enumerate(seqs):
            for seg_len in (1, 2):
                for p in range(len(seq_a) - seg_len + 1):
                    seg = seq_a[p:p + seg_len]
                    rest_a = seq_a[:p] + seq_a[p + seg_len:]
                    cost_a_old = ctx.drive_cost(seq_a)
                    for b in range(len(seqs)):
                        if b == a:
                            for q in range(len(rest_a) + 1):
                                if q == p:
                                    continue
                                cand = rest_a[:q] + seg + rest_a[q:]
                                if (ctx.drive_cost(cand) < cost_a_old - _EPS
                                        and ctx.shift_ok(cand)):
                                    seqs[a] = cand
                                    return True
                        else:
                            seq_b = seqs[b]
                            if not rest_a and not seq_b:
                                continue
                            cost_b_old = ctx.drive_cost(seq_b)
                            cost_a_new = ctx.drive_cost(rest_a) if rest_a else 0.0
                            for q in range(len(seq_b) + 1):
                                cand_b = seq_b[:q] + seg + seq_b[q:]
                                delta = (cost_a_new + ctx.drive_cost(cand_b)
                                         - cost_a_old - cost_b_old)
                                if delta >= -_EPS:
                                    continue
                                if not _seq_feasible(ctx, cand_b):
                                    continue
                                if rest_a and not ctx.shift_ok(rest_a):
                                    continue
                                seqs[a] = rest_a
                                seqs[b] = cand_b
                                return True
        return False

    while moves < max_moves:
        if try_two_opt() or try_or_opt():
            moves += 1
            seqs = [s for s in seqs if s]
            continue
        break
    return _canonical(seqs)


def _pack_plan(ctx: _Ctx, seqs: list[list[int]]) -> RoutePlan:
    trips = [ctx.build_trip(seq) for seq in _canonical(seqs)]
    assignment = size_fleet(trips, ctx.fleet.shift_s)
    trucks = [(tid, [trips[k] for k in idxs]) for tid, idxs in assignment.items()]
    return RoutePlan(
        trucks=trucks,
        objective=ctx.objective,
        depot_node=ctx.depot,
        stops=dict(ctx.stops),
    )


def improve_local(
    plan: RoutePlan,
    matrix: CostMatrix,
    fleet: FleetSpec,
    objective: str = "time",
    max_moves: int = 10_000,
) -> RoutePlan:
    """Descend with 2-opt/Or-opt until no move improves (or budget ends).

    Deterministic: moves are scanned in trip/position order.
    """
    ctx = _Ctx(matrix, list(plan.stops.values()), Depot(plan.depot_node),
               fleet, objective)
    seqs = [list(t.stop_ids) for t in plan.all_trips()]
    return _pack_plan(ctx, _improve_seqs(ctx, seqs, max_moves))


def solve_vrp(
    matrix: CostMatrix,
    stops: list[StopPoint],
    depot: Depot,
    fleet: FleetSpec,
    objective: str = "time",
    seed: int = 0,
    restarts: int = 4,
) -> RoutePlan:
    """Best feasible plan from savings construction plus seeded restarts.

    Never worse than Clarke-Wright alone (that construction, improved,
    is candidate zero) and fully deterministic for a fixed seed: restart
    candidates are ranked by (cost, restart index).
    """
    ctx = _Ctx(matrix, stops, depot, fleet, objective)
    _validate_instance(ctx)
    if not stops:
        return RoutePlan(trucks=[], objective=objective,
                         depot_node=depot.node, stops={})
    best_seqs = _improve_seqs(ctx, _clarke_wright_seqs(ctx), 10_000)
    best_cost = sum(ctx.drive_cost(s) for s in best_seqs)
    ids = sorted(ctx.stops)
    for r in range(1, max(1, restarts)):
        rng = random.Random(seed * 1_000_003 + r)
        order = ids[:]
        rng.shuffle(order)
        seqs = _improve_seqs(ctx, _cheapest_insertion_seqs(ctx, order), 10_000)
        cost = sum(ctx.drive_cost(s) for s in seqs)
        if cost < best_cost - _EPS:
            best_seqs, best_cost = seqs, cost
    return _pack_plan(ctx, best_seqs)


def _set_partitions(items: list[int]):
    """All partitions of items into non-empty blocks, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]


def brute_force_vrp(
    matrix: CostMatrix,
    stops: list[StopPoint],
    depot: Depot,
    fleet: FleetSpec,
    objective: str = "time",
) -> RoutePlan:
    """Exact optimum by enumerating stop partitions and orderings.

    Only meant as a test oracle; refuses more than 8 stops.
    """
    if len(stops) > 8:
        raise TooLarge(f"{len(stops)} stops exceed the 8-stop oracle limit")
    ctx = _Ctx(matrix, stops, depot, fleet, objective)
    _validate_instance(ctx)
    if not stops:
        return RoutePlan(trucks=[], objective=objective,
                         depot_node=depot.node, stops={})
    ids = sorted(ctx.stops)
    best_seqs: list[list[int]] | None = None
    best_cost = math.inf
    for partition in _set_partitions(ids):
        total = 0.0
        orders: list[list[int]] = []
        feasible = True
        for block in partition:
            if not ctx.load_ok(block):
                feasible = False
                break
            block_best: list[int] | None = None
            block_cost = math.inf
            for perm in permutations(block):
                seq = list(perm)
                if not ctx.shift_ok(seq):
                    continue
                c = ctx.drive_cost(seq)
                if c < block_cost:
                    block_cost, block_best = c, seq
            if block_best is None:
                feasible = False
                break
            total += block_cost
            orders.append(block_best)
            if total >= best_cost:
                feasible = False
                break
        if feasible and total < best_cost:
            best_cost, best_seqs = total, orders
    assert best_seqs is not None  # singleton partition is always feasible
    return _pack_plan(ctx, best_seqs)


def size_fleet(trips: list[Trip], shift_s: float) -> dict[int, list[int]]:
    """First-fit-decreasing packing of trip durations into shift bins.

    Returns truck id (1-based) -> indices into ``trips``.
    """
    for k, t in enumerate(trips):
        if t.total_time_s > shift_s + _EPS:
            raise ShiftTooShort(
                f"trip {k} lasts {t.total_time_s:.0f} s, longer than the "
                f"{shift_s:.0f} s shift"
            )
    order = sorted(range(len(trips)), key=lambda k: (-trips[k].total_time_s, k))
    loads: list[float] = []
    bins: list[list[int]] = []
    for k in order:
        t = trips[k].total_time_s
        placed = False
        for b in range(len(bins)):
            if loads[b] + t <= shift_s + _EPS:
                bins[b].append(k)
                loads[b] += t
                placed = True
                break
        if not placed:
            bins.append([k])
            loads.append(t)
    return {tid + 1: sorted(idxs) for tid, idxs in enumerate(bins)}


@dataclass
class TruckMetrics:
    truck_id: int
    n_trips: int
    distance_m: float
    drive_s: float
    service_s: float
    unload_s: float
    work_s: float


@dataclass
class RouteMetrics:
    per_truck: list[TruckMetrics]
    fleet_size: int
    n_trips: int
    total_distance_m: float
    total_drive_s: float
    total_service_s: float
    total_unload_s: float
    total_work_s: float
    avg_route_distance_m: float  # per truck, Table-style averages
    avg_route_time_s: float


def route_metrics(plan: RoutePlan, matrix: CostMatrix, fleet: FleetSpec) -> RouteMetrics:
    """Aggregate distance/time per truck and overall; averages per truck."""
    per_truck = []
    for tid, trips in plan.trucks:
        per_truck.append(
            TruckMetrics(
                truck_id=tid,
                n_trips=len(trips),
                distance_m=sum(t.distance_m for t in trips),
                drive_s=sum(t.drive_time_s for t in trips),
                service_s=sum(t.service_time_s for t in trips),
                unload_s=sum(t.unload_s for t in trips),
                work_s=sum(t.total_time_s for t in trips),
            )
        )
    if matrix.metric == plan.objective:
        ctx = _Ctx(matrix, list(plan.stops.values()), Depot(plan.depot_node),
                   fleet, plan.objective)
        for t in plan.all_trips():
            recomputed = ctx.drive_time(t.stop_ids)
            if not math.isclose(recomputed, t.drive_time_s, rel_tol=1e-9,
                                abs_tol=1e-6):
                raise ValueError(
                    f"plan drive time {t.drive_time_s} disagrees with the "
                    f"matrix ({recomputed}) for trip {t.stop_ids}"
                )
    fleet_size = sum(1 for m in per_truck if m.n_trips)
    total_distance = sum(m.distance_m for m in per_truck)
    total_work = sum(m.work_s for m in per_truck)
    return RouteMetrics(
        per_truck=per_truck,
        fleet_size=fleet_size,
        n_trips=sum(m.n_trips for m in per_truck),
        total_distance_m=total_distance,
        total_drive_s=sum(m.drive_s for m in per_truck),
        total_service_s=sum(m.service_s for m in per_truck),
        total_unload_s=sum(m.unload_s for m in per_truck),
        total_work_s=total_work,
        avg_route_distance_m=total_distance / fleet_size if fleet_size else 0.0,
        avg_route_time_s=total_work / fleet_size if fleet_size else 0.0,
    )


PLAN_HEADER = ["truck_id", "trip_index", "stop_sequence", "load_kg",
               "distance_m", "drive_s", "service_s", "unload_s"]


def write_plan(plan: RoutePlan, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PLAN_HEADER)
        for tid, trips in plan.trucks:
            for k, t in enumerate(trips, start=1):
                w.writerow(
                    [
                        tid,
                        k,
                        ";".join(str(s) for s in t.stop_ids),
                        repr(t.load_kg),
                        repr(t.distance_m),
                        repr(t.drive_time_s),
                        repr(t.service_time_s),
                        repr(t.unload_s),
                    ]
                )
