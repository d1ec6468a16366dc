"""Reference coverage: the full-scan ``snap`` and the unbounded,
dense ``_stop_distances`` that ``mswplan`` replaced, with ``place_stops``
and ``verify_coverage`` as they read those tables, kept verbatim.

Every demand snaps by measuring every node, and every candidate's
search settles the whole network. ``tests/test_coverage_bounded.py``
requires the radius-bounded, grid-snapped code to return exactly the
same stops, reports and errors.

The audit later gained input checks: a stop listing an unknown demand
id, an ``assigned_kg`` other than its demands' mass, or one over the
load cap at a stop that lists two or more demands, is a DataError, and
a demand listed twice, under two stops or twice under one, is a
PlannerError. ``_check_stop_table`` restates them here, so audits of
such stop sets still compare as errors. Stops later lost their stored
overflow flag: ``_overflow_stop_ids`` finds the overflow stops from the
stop rows and the cap.
"""

from __future__ import annotations

import logging
import math

from mswplan.coverage import (
    _RADIUS_TOL_M,
    CoverageConfig,
    CoverageReport,
    DemandPoint,
    StopPoint,
)
from mswplan.errors import (DataError, NoNodeWithinRange, PlannerError,
                            UncoverableDemand, UnknownNode)
from mswplan.network import _SNAP_TIE_M, RoadNetwork, _search

log = logging.getLogger("mswplan.coverage")


def snap(net: RoadNetwork, point: tuple[float, float], max_dist_m: float) -> int:
    """Nearest network node to a planar point; ties go to the smaller id."""
    if net.n_nodes == 0:
        raise UnknownNode("network has no nodes")
    px, py = point
    dists = {nid: math.hypot(net.node(nid).x_m - px, net.node(nid).y_m - py)
             for nid in net.node_ids}
    best = min(dists.values())
    if best > max_dist_m:
        raise NoNodeWithinRange(
            f"nearest node is {best:.1f} m away, limit {max_dist_m:.1f} m"
        )
    return min(nid for nid, d in dists.items() if d <= best + _SNAP_TIE_M)


def _stop_distances(
    net: RoadNetwork, demands: list[DemandPoint], cfg: CoverageConfig,
    candidates: list[int],
) -> dict[int, dict[int, float]]:
    """Distance in meters from each candidate node to each demand point.

    Network mode: directed shortest-path meters from the candidate to the
    demand's snapped node. Euclidean mode: straight line from the
    candidate node to the demand coordinates.
    """
    if cfg.distance_mode == "euclidean":
        dists: dict[int, dict[int, float]] = {}
        for c in candidates:
            node = net.node(c)
            dists[c] = {
                d.id: math.hypot(node.x_m - d.x_m, node.y_m - d.y_m)
                for d in demands
            }
        return dists
    snapped: dict[int, int] = {}
    for d in demands:
        try:
            snapped[d.id] = snap(net, (d.x_m, d.y_m), cfg.radius_m)
        except NoNodeWithinRange as exc:
            raise UncoverableDemand(
                f"demand {d.id} does not snap to the network within "
                f"{cfg.radius_m} m"
            ) from exc
    dists = {}
    for c in candidates:
        meters = _search(net, c, "distance").cost
        dists[c] = {d.id: meters.get(snapped[d.id], math.inf) for d in demands}
    return dists


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
    """
    candidates = sorted(cfg.candidate_nodes) if cfg.candidate_nodes else net.node_ids
    if not candidates:
        raise UncoverableDemand("candidate node set is empty")
    dist = _stop_distances(net, demands, cfg, candidates)
    by_id = {d.id: d for d in demands}
    within: dict[int, list[int]] = {
        c: [d.id for d in demands if dist[c][d.id] <= cfg.radius_m + _RADIUS_TOL_M]
        for c in candidates
    }

    uncovered = {d.id for d in demands}
    stops: list[StopPoint] = []
    while uncovered:
        best_node = None
        best_gain = 0.0
        for c in candidates:
            gain = sum(by_id[i].waste_kg_day for i in within[c] if i in uncovered)
            if gain > best_gain:
                best_gain, best_node = gain, c
        if best_node is None:
            # only zero-mass demands are coverable: gains cannot rank them
            best_node = next(
                (c for c in candidates if any(i in uncovered for i in within[c])),
                None,
            )
        if best_node is None:
            stranded = sorted(uncovered)
            raise UncoverableDemand(
                f"no candidate within {cfg.radius_m} m covers demands {stranded}"
            )
        eligible = sorted(
            (i for i in within[best_node] if i in uncovered),
            key=lambda i: (dist[best_node][i], i),
        )
        taken: list[int] = []
        load = 0.0
        for i in eligible:
            w = by_id[i].waste_kg_day
            if not taken and w > cfg.max_stop_load_kg:
                taken = [i]
                load = w
                log.warning(
                    "demand %s (%.1f kg) exceeds the %.1f kg stop cap; "
                    "dedicated stop opened at node %s",
                    i, w, cfg.max_stop_load_kg, best_node,
                )
                break
            if load + w <= cfg.max_stop_load_kg:
                taken.append(i)
                load += w
        stops.append(
            StopPoint(
                id=len(stops),
                node=best_node,
                assigned_demand_kg=math.fsum(by_id[i].waste_kg_day for i in taken),
                service_time_s=cfg.service_time_s,
                covered_demand_ids=taken,
            )
        )
        uncovered.difference_update(taken)
    return stops


def verify_coverage(
    stops: list[StopPoint],
    demands: list[DemandPoint],
    net: RoadNetwork,
    cfg: CoverageConfig,
) -> CoverageReport:
    """Audit a stop set: radius compliance, loads, and full coverage."""
    _check_stop_table(stops, demands, cfg.max_stop_load_kg)
    nodes = sorted({s.node for s in stops})
    dist = _stop_distances(net, demands, cfg, nodes) if nodes else {}
    covered: set[int] = set()
    for s in stops:
        for i in s.covered_demand_ids:
            if dist[s.node].get(i, math.inf) <= cfg.radius_m + _RADIUS_TOL_M:
                covered.add(i)
    uncovered = sorted(d.id for d in demands if d.id not in covered)
    loads = [s.assigned_demand_kg for s in stops]
    histogram: dict[int, int] = {}
    for load in loads:
        bin_start = int(load // 100) * 100
        histogram[bin_start] = histogram.get(bin_start, 0) + 1
    return CoverageReport(
        uncovered_ids=uncovered,
        max_load_kg=max(loads, default=0.0),
        load_histogram=dict(sorted(histogram.items())),
        overflow_stop_ids=_overflow_stop_ids(stops, cfg.max_stop_load_kg),
    )


def _overflow_stop_ids(stops: list[StopPoint], cap_kg: float) -> list[int]:
    """The stops of one demand whose load is over the cap, in stop order."""
    out = []
    for s in stops:
        if len(s.covered_demand_ids) == 1 and s.assigned_demand_kg > cap_kg:
            out.append(s.id)
    return out


def _check_stop_table(stops: list[StopPoint], demands: list[DemandPoint],
                      cap_kg: float) -> None:
    """Each stop lists known demands, none listed before, whose masses
    sum to its assigned_kg, which is within ``cap_kg`` unless the stop
    lists one demand."""
    mass = {d.id: d.waste_kg_day for d in demands}
    first: dict[int, int] = {}  # demand id -> the stop that listed it first
    for s in stops:
        for i in s.covered_demand_ids:
            if i not in mass:
                raise DataError(f"stop {s.id} lists demand {i}, which is "
                                "not a demand point")
            if i in first:
                raise PlannerError(f"demand {i} is listed under stop {first[i]} "
                                   f"and again under stop {s.id}")
            first[i] = s.id
        listed = math.fsum(mass[i] for i in s.covered_demand_ids)
        if abs(listed - s.assigned_demand_kg) > max(
                1e-9 * max(abs(listed), abs(s.assigned_demand_kg)), 1e-6):
            raise DataError(
                f"stop {s.id} has assigned_kg {s.assigned_demand_kg} but its "
                f"demands weigh {listed} kg; was it planned at another "
                "generation_rate_kg_unit_day?")
        kg, n = s.assigned_demand_kg, len(s.covered_demand_ids)
        if n >= 2 and kg > cap_kg and abs(kg - cap_kg) > max(1e-9 * kg, 1e-6):
            raise DataError(f"stop {s.id} lists {n} demands and is assigned {kg} "
                            f"kg, over the {cap_kg} kg max_stop_load_kg")
