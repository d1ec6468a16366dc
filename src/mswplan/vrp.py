"""Capacitated multi-trip vehicle routing over the stop set.

Construction is Clarke-Wright savings, polished by 2-opt (within trips)
and Or-opt (segments of 1-2 stops relocated within or across trips).
A few seeded ruin-and-recreate rounds then perturb the best plan
(Schrimpf et al., "Record Breaking Optimization Results Using the Ruin
and Recreate Principle", J. Comput. Phys. 159, 2000): each removes the
stops nearest a random centre stop, reinserts them by cheapest
insertion in a random order, descends again, and keeps the result only
if it is cheaper. A fixed seed gives a fixed plan. Trips are then
packed onto trucks first-fit-decreasing against the working shift. The
full-enumeration optimality oracle for small instances lives with the
tests.

The objective is total drive cost over all trips, in the cost matrix's
metric (seconds or meters).
Per-stop service time is constant for a fixed stop set and depot unload
time only rewards merging trips, which shorter drive cost already does,
so neither term can change the argmin.

Only ``_Ctx.__init__`` reads the ``CostMatrix`` tables. It copies the
cells the instance needs into square time and length tables: position 0
is the depot, then one per distinct stop node, so a stop has one index
as origin and as destination, as in the client-indexed matrix of
HGS-CVRP. The local search prices moves by delta evaluation ("move
evaluation by concatenation", Vidal 2022, arXiv:2012.10384): once per
scan each trip gets its positions, leg costs and reverse-direction
prefix sums, and a 2-opt or Or-opt candidate then costs a few lookups
instead of a full-trip sum. The deltas only filter, with a slack that
bounds their rounding; each candidate that passes is decided by the
full-trip comparison and feasibility checks, so the search accepts
exactly the moves, in the same scan order, that pricing every candidate
in full would (see ``_improve_seqs``). One pricer, ``_insertion_deltas``,
prices both the Or-opt insertions and the reinsertions of the ruin
rounds. The descents of a solve share one memory of per-trip data, and
of trips and trip pairs shown to have no improving move, so none
decides a fact twice; as a round changes only the trips near its
centre, its descent skips the rest.

``verify_plan`` audits a finished plan by node id, apart from the
solver's tables: stops, loads, drive times, lengths and shifts.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .coverage import StopPoint
from .errors import (
    InfeasibleStop,
    PlannerError,
    ShiftTooShort,
    UnknownNode,
    UnreachableStop,
)
from .network import METRICS, CostMatrix, _write_table

_EPS = 1e-9
#: Rounding slack of delta evaluation per summed leg, relative to the
#: cost of the trips a move touches (see ``_improve_seqs``).
_ROUND = 4 * sys.float_info.epsilon

#: Ruin-and-recreate rounds ``solve_vrp`` runs on its best plan, and the
#: stops each round removes and reinserts.
RUINS = 6
RUIN_SIZE = 6
#: Moves one local-search descent may apply.
MAX_MOVES = 10_000


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")


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

    def __post_init__(self):
        if self.objective not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.objective!r}")

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
    def cost(self) -> float:
        """Objective value: total drive seconds or meters."""
        if self.objective == "time":
            return self.total_drive_time_s
        return self.total_distance_m

    def stop_node(self, stop_id: int) -> int:
        return self.stops[stop_id].node


def instance_nodes(stops: list[StopPoint], depot: int) -> list[int]:
    """The nodes of a VRP instance: the depot, then each other stop node by id."""
    return [depot] + sorted({s.node for s in stops} - {depot})


class _Ctx:
    """Pre-indexed costs and stop attributes for one solver run."""

    def __init__(self, matrix: CostMatrix, stops: list[StopPoint],
                 depot: int, fleet: FleetSpec):
        self.fleet = fleet
        self.objective = matrix.metric
        self.depot = depot
        self.stops: dict[int, StopPoint] = {}
        for s in stops:
            if s.id in self.stops:
                raise ValueError(f"stop id {s.id} appears more than once")
            self.stops[s.id] = s
        # one position indexes a stop both as origin and destination
        self.nodes = instance_nodes(stops, depot)
        row = {nid: i for i, nid in enumerate(matrix.origins)}
        col = {nid: i for i, nid in enumerate(matrix.destinations)}
        for nid in self.nodes:
            if nid not in row or nid not in col:
                raise UnknownNode(f"node {nid} missing from the cost matrix")
        at = {nid: k for k, nid in enumerate(self.nodes)}
        self.at = {s.id: at[s.node] for s in stops}
        src = [row[nid] for nid in self.nodes]
        dst = [col[nid] for nid in self.nodes]
        self.time, self.length = ([[table[r][c] for c in dst] for r in src]
                                  for table in (matrix.time_s, matrix.length_m))
        self.cost = self.time if self.objective == "time" else self.length
        # the search memory of every descent on this instance: trip contents
        # -> scan data, and the facts proven by ids (see _improve_seqs)
        self.scanned: dict[tuple[int, ...], tuple] = {}
        self.no_two_opt: set[int] = set()
        self.no_or_opt: set[tuple[int, int]] = set()

    def scan(self, seq: list[int]):
        """A trip's contents id, ``tour``, cost and load, built once per contents."""
        key = tuple(seq)
        data = self.scanned.get(key)
        if data is None:
            idx, legs = self.tour(seq)
            data = self.scanned[key] = (len(self.scanned), idx, legs, sum(legs),
                                        self.load(seq))
        return data

    def _legs(self, table, seq: list[int]):
        at = self.at
        idx = [0] + [at[s] for s in seq] + [0]
        return idx, [table[a][b] for a, b in zip(idx, idx[1:])]

    def tour(self, seq: list[int]):
        """Table positions of depot, *seq, depot, and the cost of each
        leg: ``legs[k]`` runs from ``idx[k]`` to ``idx[k + 1]``."""
        return self._legs(self.cost, seq)

    def drive_cost(self, seq: list[int]) -> float:
        return sum(self._legs(self.cost, seq)[1])

    def drive_time(self, seq: list[int]) -> float:
        return sum(self._legs(self.time, seq)[1])

    def drive_len(self, seq: list[int]) -> float:
        return sum(self._legs(self.length, seq)[1])

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
        return Trip(
            stop_ids=list(seq),
            load_kg=self.load(seq),
            drive_time_s=self.drive_time(seq),
            service_time_s=self.service(seq),
            unload_s=self.fleet.unload_s,
            distance_m=self.drive_len(seq),
        )


def _validate_instance(ctx: _Ctx) -> None:
    """Reject what no plan can serve, and NaN or negative demands and
    costs, which the delta evaluation of ``_improve_seqs`` excludes."""
    for sid in sorted(ctx.stops):
        stop = ctx.stops[sid]
        if not stop.assigned_demand_kg >= 0:
            raise ValueError(
                f"stop {sid} demand {stop.assigned_demand_kg} kg is not a "
                f"non-negative number"
            )
        if stop.assigned_demand_kg > ctx.fleet.capacity_kg + _EPS:
            raise InfeasibleStop(
                f"stop {sid} demand {stop.assigned_demand_kg:.1f} kg exceeds "
                f"capacity {ctx.fleet.capacity_kg:.1f} kg"
            )
    for a, line in zip(ctx.nodes, ctx.cost):
        for b, cost in zip(ctx.nodes, line):
            if math.isinf(cost):
                raise UnreachableStop(f"no route between nodes {a} and {b}")
            if not cost >= 0:
                raise ValueError(
                    f"cost {cost} from node {a} to node {b} is not a "
                    f"non-negative number"
                )
    for sid in sorted(ctx.stops):
        if not ctx.shift_ok([sid]):
            raise ShiftTooShort(
                f"serving stop {sid} alone takes {ctx.duration([sid]):.0f} s, "
                f"longer than the {ctx.fleet.shift_s:.0f} s shift"
            )


def _seq_feasible(ctx: _Ctx, seq: list[int]) -> bool:
    return ctx.load_ok(seq) and ctx.shift_ok(seq)


def _clarke_wright_seqs(ctx: _Ctx) -> list[list[int]]:
    """Savings construction: for s(i,j) = c(depot,i) + c(j,depot) - c(i,j)
    > 0, in descending order with ties by (i, j), join the route ending at
    i to the route starting at j when capacity and shift allow."""
    ids = sorted(ctx.stops)
    routes: dict[int, list[int]] = {sid: [sid] for sid in ids}
    head_of = {sid: sid for sid in ids}  # stop -> route id where it is first
    tail_of = {sid: sid for sid in ids}  # stop -> route id where it is last
    cost, at = ctx.cost, ctx.at
    from_depot = cost[0]
    to_depot = {j: cost[at[j]][0] for j in ids}
    savings = []
    for i in ids:
        out_i, line_i = from_depot[at[i]], cost[at[i]]
        for j in ids:
            if i == j:
                continue
            savings.append((-(out_i + to_depot[j] - line_i[at[j]]), i, j))
    savings.sort()
    for neg_s, i, j in savings:
        if neg_s >= 0:
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


def _cheapest_insertion_seqs(ctx: _Ctx, order: list[int],
                             seqs: Iterable[list[int]] = ()) -> list[list[int]]:
    """Put each stop of ``order`` into the trips ``seqs`` (empty ones
    dropped) at its cheapest feasible position, priced as a one-stop
    Or-opt segment, or alone in a new trip.

    Positions are tried by (delta, trip, position), and the first whose
    trip passes ``shift_ok`` takes the stop, as the local search confirms
    its candidates.
    """
    cost = ctx.cost
    seqs = [list(s) for s in seqs if s]
    for sid in order:
        at_s = ctx.at[sid]
        positions = []
        for ti, seq in enumerate(seqs):
            # the load is an fsum, correctly rounded: the same at every position
            if ctx.load_ok(seq + [sid]):
                deltas = _insertion_deltas(cost, *ctx.tour(seq), at_s, cost[at_s], 0.0)
                positions += ((delta, ti, pos) for pos, delta in enumerate(deltas))
        for _, ti, pos in sorted(positions):
            new = seqs[ti][:pos] + [sid] + seqs[ti][pos:]
            if ctx.shift_ok(new):
                seqs[ti] = new
                break
        else:
            seqs.append([sid])
    return seqs


def _delta_limit(n_legs: int, cost: float) -> float:
    """Deltas at or above this cannot pass the full-recompute test of a
    move over ``n_legs`` legs of trips costing ``cost`` in total (see
    ``_improve_seqs``)."""
    return _ROUND * (n_legs + 8) * cost - _EPS


def _flip_prefix(cost, idx, legs) -> list[float]:
    """``flip[k]``: sum over legs m < k of (reverse cost - forward cost).

    Reversing the stops between positions i and j turns legs i..j-1
    around, which adds ``flip[j] - flip[i]``; it is 0 only when those
    legs cost the same both ways.
    """
    flip = [0.0]
    for k, leg in enumerate(legs):
        flip.append(flip[k] + (cost[idx[k + 1]][idx[k]] - leg))
    return flip


def _reversal_deltas(cost, idx, legs, flip, i: int) -> list[float]:
    """Drive-cost change of reversing ``seq[i..j]`` for each j > i."""
    from_in, from_out = cost[idx[i]], cost[idx[i + 1]]
    n = len(idx) - 2
    start = legs[i] + flip[i + 1]
    # positions i+1..j+1 reversed: arcs i->j+1 and i+1->j+2 replace legs
    # i and j+1; the inner legs flip
    return [from_in[to_in] + from_out[to_out] + (f - leg) - start
            for to_in, to_out, f, leg in zip(idx[i + 2:n + 1], idx[i + 3:],
                                             flip[i + 2:], legs[i + 2:])]


def _removal_delta(cost, idx, legs, p: int, seg_len: int) -> float:
    """Drive-cost change of cutting ``seq[p:p + seg_len]`` out, leaving
    the segment's own legs aside (they travel with it). An emptied trip
    costs 0, as ``_improve_seqs`` counts it."""
    n = len(idx) - 2
    gap = cost[idx[p]][idx[p + seg_len + 1]] if seg_len < n else 0.0
    return gap - legs[p] - legs[p + seg_len]


def _without(cost, idx, legs, p: int, seg_len: int):
    """``idx`` and ``legs`` of the trip with ``seq[p:p + seg_len]`` cut out
    and the gap closed, as ``_Ctx.tour`` would give them."""
    cut = p + seg_len + 1
    gap = cost[idx[p]][idx[cut]]
    return idx[:p + 1] + idx[cut:], legs[:p] + [gap] + legs[cut:]


def _insertion_deltas(cost, idx, legs, first: int, from_last,
                      offset: float) -> list[float]:
    """``offset`` plus the drive-cost change of putting a segment between
    positions q and q + 1, for each q. The segment enters at table
    position ``first`` and leaves along ``from_last``, the cost line of
    its last stop."""
    return [offset + cost[a][first] + from_last[b] - leg
            for a, b, leg in zip(idx, idx[1:], legs)]


def _improve_seqs(ctx: _Ctx, seqs: list[list[int]], max_moves: int) -> list[list[int]]:
    """First-improvement descent with 2-opt and Or-opt moves.

    Each scan tries every 2-opt reversal (trip, then i < j), then every
    Or-opt relocation of 1 or 2 consecutive stops (source trip, segment
    length, position, target trip, insert position), and applies the
    first move that lowers the drive cost and keeps the changed trips
    feasible. Scans repeat until none improves or ``max_moves`` ran.

    Candidates are priced by delta evaluation. ``_Ctx.scan`` gives each
    trip its table positions and leg costs (``_Ctx.tour``), its cost
    (their sum, as ``_Ctx.drive_cost`` takes it) and its load; a trip
    the 2-opt loop prices also gets the reverse-minus-forward prefix
    sums of ``_flip_prefix``, as costs are asymmetric and a reversed
    segment changes its inner arcs.
    A 2-opt delta then costs 4 lookups and a prefix difference, an
    Or-opt delta 6 lookups.

    The deltas only filter. A candidate goes on when its delta is below
    ``_delta_limit``: ``-_EPS`` plus a slack of ``_ROUND * (legs + 8) *
    cost`` over the trips it changes (for 2-opt, the trip's cost plus
    its reversed cost). Each one that
    goes on is decided as by full recomputation: ``drive_cost`` of the
    changed trips against the incumbent minus ``_EPS``, then the same
    shift and load checks. With the non-negative costs and demands that
    ``_validate_instance`` admits, the slack bounds the rounding gap
    between a delta and that difference of full-trip sums (a candidate
    that costs over twice the incumbent fails both tests), so no move the
    full test would accept is filtered out. Or-opt prices each open
    target trip of a segment in one loop: the source trip with the
    segment cut out (``_without``) unless it is the whole trip, and every
    other trip on its scan data unless the segment's load overfills it
    beyond rounding (``load_ok`` fails at every insert position). Only
    the full test differs: one trip's cost, or the sum of two.

    Tours, costs, loads, shift checks, delta limits and the load-based
    target skip depend only on the instance and the contents of the trips
    involved, so the memory on ``ctx`` is exact for every descent on it:
    trip data is built once per contents, and a scan skips trips whose
    2-opt loop once ended without a move, and the Or-opt (source, target)
    pairs recorded when a whole loop of that source ended without a move.
    Accepted moves, scan order and result are those of pricing every
    candidate in full.
    """
    seqs = [list(s) for s in seqs if s]
    cost = ctx.cost
    # a trip loaded beyond this estimate fails ctx.load_ok for sure
    max_load = (ctx.fleet.capacity_kg + _EPS) * (1 + _ROUND)
    moves = 0

    def try_two_opt(tours) -> bool:
        for t, seq in enumerate(seqs):
            n = len(seq)
            key, idx, legs, base, _ = tours[t]
            if n < 2 or key in ctx.no_two_opt:
                continue
            flip = _flip_prefix(cost, idx, legs)
            # the cost bound covers the trip driven both ways
            lim = _delta_limit(n + 1, 2 * base + flip[-1])
            for i in range(n - 1):
                deltas = _reversal_deltas(cost, idx, legs, flip, i)
                if min(deltas) >= lim:
                    continue
                for j, delta in enumerate(deltas, start=i + 1):
                    if delta >= lim:
                        continue
                    cand = seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]
                    if ctx.drive_cost(cand) < base - _EPS and ctx.shift_ok(cand):
                        seqs[t] = cand
                        return True
            ctx.no_two_opt.add(key)
        return False

    def try_or_opt(tours) -> bool:
        for a, seq_a in enumerate(seqs):
            key_a, idx, legs, cost_a_old, _ = tours[a]
            # the targets not yet shown to take no improving segment of a
            open_b = [b for b, data in enumerate(tours)
                      if (key_a, data[0]) not in ctx.no_or_opt]
            if not open_b:
                continue
            n_a = len(seq_a)
            lim_a = _delta_limit(n_a + 1, cost_a_old)
            demand_a = [ctx.stops[s].assigned_demand_kg for s in seq_a]
            for seg_len in (1, 2):
                for p in range(n_a - seg_len + 1):
                    seg = seq_a[p:p + seg_len]
                    rest_a = None  # seq_a without seg, built once a target needs it
                    cost_a_new = None
                    seg_load = sum(demand_a[p:p + seg_len])
                    first = idx[p + 1]
                    from_last = cost[idx[p + seg_len]]
                    removal = _removal_delta(cost, idx, legs, p, seg_len)
                    for b in open_b:
                        own = b == a
                        if own:
                            if n_a == seg_len:
                                continue
                            idx_b, legs_b = _without(cost, idx, legs, p, seg_len)
                            lim = lim_a
                        elif tours[b][4] + seg_load > max_load:
                            continue  # overfilled: load_ok fails at every q
                        else:
                            _, idx_b, legs_b, cost_b_old, _ = tours[b]
                            lim = _delta_limit(n_a + 1 + len(legs_b),
                                               cost_a_old + cost_b_old)
                        deltas = _insertion_deltas(cost, idx_b, legs_b, first,
                                                   from_last, removal)
                        if min(deltas) >= lim:
                            continue
                        for q, delta in enumerate(deltas):
                            if delta >= lim or own and q == p:
                                continue
                            if rest_a is None:
                                rest_a = seq_a[:p] + seq_a[p + seg_len:]
                            into = rest_a if own else seqs[b]
                            cand = into[:q] + seg + into[q:]
                            if own:
                                if (ctx.drive_cost(cand) < cost_a_old - _EPS
                                        and ctx.shift_ok(cand)):
                                    seqs[a] = cand
                                    return True
                                continue
                            if cost_a_new is None:
                                cost_a_new = ctx.drive_cost(rest_a) if rest_a else 0.0
                            if (cost_a_new + ctx.drive_cost(cand) - cost_a_old
                                    - cost_b_old >= -_EPS):
                                continue
                            if not _seq_feasible(ctx, cand):
                                continue
                            if rest_a and not ctx.shift_ok(rest_a):
                                continue
                            seqs[a], seqs[b] = rest_a, cand
                            return True
            ctx.no_or_opt.update((key_a, tours[b][0]) for b in open_b)
        return False

    while moves < max_moves:
        tours = [ctx.scan(seq) for seq in seqs]
        if try_two_opt(tours) or try_or_opt(tours):
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


def solve_vrp(
    matrix: CostMatrix,
    stops: list[StopPoint],
    depot: int,
    fleet: FleetSpec,
    *,
    seed: int = 0,
) -> RoutePlan:
    """Best feasible plan from the ``depot`` node, by savings construction
    plus seeded ruin and recreate.

    Clarke-Wright, improved, is candidate zero and the first incumbent.
    Round ``r`` of ``RUINS`` draws from ``random.Random(seed * 1_000_003 +
    r)`` a centre stop, removes the ``RUIN_SIZE`` stops nearest it by the
    centre's cost row (ties by stop id), reinserts them in a shuffled
    order with ``_cheapest_insertion_seqs`` into the remaining trips, and
    descends with ``_improve_seqs``. A round is skipped when a trip it cut
    no longer fits the shift (costs need not obey the triangle
    inequality), and its result replaces the incumbent only when cheaper
    by more than ``_EPS``. So the plan is never worse than Clarke-Wright
    alone and fully deterministic for a fixed seed.
    """
    ctx = _Ctx(matrix, stops, depot, fleet)
    _validate_instance(ctx)
    best_seqs = _improve_seqs(ctx, _clarke_wright_seqs(ctx), MAX_MOVES)
    best_cost = sum(ctx.drive_cost(s) for s in best_seqs)
    ids = sorted(ctx.stops)
    for r in range(1, RUINS + 1) if ids else ():
        rng = random.Random(seed * 1_000_003 + r)
        line = ctx.cost[ctx.at[rng.choice(ids)]]
        removed = sorted(ids, key=lambda s: (line[ctx.at[s]], s))[:RUIN_SIZE]
        rng.shuffle(removed)
        kept = [[s for s in seq if s not in removed] for seq in best_seqs]
        if not all(ctx.shift_ok(seq) for seq in kept if seq):
            continue
        seqs = _improve_seqs(ctx, _cheapest_insertion_seqs(ctx, removed, kept),
                             MAX_MOVES)
        cost = sum(ctx.drive_cost(s) for s in seqs)
        if cost < best_cost - _EPS:
            best_seqs, best_cost = seqs, cost
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


def verify_plan(plan: RoutePlan, matrix: CostMatrix, fleet: FleetSpec) -> None:
    """Audit ``plan`` apart from the solver's tables.

    Each stop of ``plan.stops`` is planned exactly once. Per trip, which
    visits at least one stop, the load re-summed from the stops' demands
    equals ``load_kg`` and is within capacity, ``service_time_s`` equals
    the stops' service times summed in visit order, ``unload_s`` is the
    fleet's, and ``drive_time_s`` and ``distance_m`` equal their re-sums
    from ``matrix.time_s`` and ``matrix.length_m``, depot -> stops ->
    depot, looked up by node id. Per truck, the trips fit the shift. A
    fault is a PlannerError naming the truck, the trip and the check; a
    node the matrix lacks is an UnknownNode.
    """
    row = {nid: i for i, nid in enumerate(matrix.origins)}
    col = {nid: i for i, nid in enumerate(matrix.destinations)}
    unplanned = set(plan.stops)
    for tid, trips in plan.trucks:
        for k, t in enumerate(trips, start=1):
            where = f"truck {tid} trip {k}"
            if not t.stop_ids:
                raise PlannerError(f"{where}: visits no stops")
            for sid in t.stop_ids:
                if sid not in unplanned:
                    raise PlannerError(f"{where}: stop {sid} is " + (
                        "planned more than once" if sid in plan.stops
                        else "not a stop of the plan"))
                unplanned.remove(sid)
            load = math.fsum(plan.stops[s].assigned_demand_kg for s in t.stop_ids)
            nodes = ([plan.depot_node] + [plan.stop_node(s) for s in t.stop_ids]
                     + [plan.depot_node])
            try:
                cells = [(row[a], col[b]) for a, b in zip(nodes, nodes[1:])]
            except KeyError as exc:
                raise UnknownNode(f"{where}: node {exc.args[0]} missing from "
                                  "the cost matrix") from None
            for what, value, resum in (
                    ("load_kg", t.load_kg, load),
                    ("service_time_s", t.service_time_s,
                     sum(plan.stops[s].service_time_s for s in t.stop_ids)),
                    ("drive_time_s", t.drive_time_s,
                     sum(matrix.time_s[r][c] for r, c in cells)),
                    ("distance_m", t.distance_m,
                     sum(matrix.length_m[r][c] for r, c in cells))):
                if not math.isclose(value, resum, rel_tol=1e-9, abs_tol=1e-6):
                    raise PlannerError(f"{where}: {what} {value} disagrees "
                                       f"with its re-sum {resum}")
            if t.unload_s != fleet.unload_s:
                raise PlannerError(f"{where}: unload_s {t.unload_s} is not the "
                                   f"fleet's {fleet.unload_s} s")
            if load > fleet.capacity_kg + _EPS:
                raise PlannerError(f"{where}: load {load} kg exceeds the "
                                   f"{fleet.capacity_kg} kg capacity")
        work = sum(t.total_time_s for t in trips)
        if work > fleet.shift_s + _EPS:
            raise PlannerError(f"truck {tid}: trips take {work} s, longer than "
                               f"the {fleet.shift_s} s shift")
    if unplanned:
        raise PlannerError(f"stops {sorted(unplanned)} are not planned")


@dataclass
class RouteMetrics:
    total_distance_m: float
    total_work_s: float
    avg_route_distance_m: float  # per truck, Table-style averages
    avg_route_time_s: float


def route_metrics(plan: RoutePlan) -> RouteMetrics:
    """Aggregate distance/time per truck and overall; averages per truck."""
    # per truck, then over trucks: the summation order summary.cfg was written in
    total_distance = sum(sum(t.distance_m for t in trips) for _, trips in plan.trucks)
    total_work = sum(sum(t.total_time_s for t in trips) for _, trips in plan.trucks)
    fleet_size = plan.fleet_size
    return RouteMetrics(
        total_distance_m=total_distance,
        total_work_s=total_work,
        avg_route_distance_m=total_distance / fleet_size if fleet_size else 0.0,
        avg_route_time_s=total_work / fleet_size if fleet_size else 0.0,
    )


PLAN_HEADER = ["truck_id", "trip_index", "stop_sequence", "load_kg",
               "distance_m", "drive_s", "service_s", "unload_s"]


def write_plan(plan: RoutePlan, path: str) -> None:
    _write_table(path, PLAN_HEADER, (
        (tid, k, ";".join(map(str, t.stop_ids)), t.load_kg, t.distance_m,
         t.drive_time_s, t.service_time_s, t.unload_s)
        for tid, trips in plan.trucks for k, t in enumerate(trips, start=1)))
