"""Map-ready route geometry: one line feature per trip."""

from __future__ import annotations

import json

from .network import CostMatrix, RoadNetwork
from .vrp import RoutePlan


def route_geometry(plan: RoutePlan, net: RoadNetwork, matrix: CostMatrix) -> dict:
    """GeoJSON-style FeatureCollection of per-trip polylines.

    Each trip becomes a LineString through depot, stops and depot again,
    with coordinates in planar meters. Its legs are read from
    ``matrix.path``, so they are exactly the paths the plan's drive times
    and distances were measured on; nothing is searched here.
    """
    features = []
    for truck_id, trips in plan.trucks:
        for trip_index, trip in enumerate(trips, start=1):
            stop_nodes = [plan.stop_node(s) for s in trip.stop_ids]
            waypoints = [plan.depot_node, *stop_nodes, plan.depot_node]
            node_seq: list[int] = [waypoints[0]]
            for a, b in zip(waypoints[:-1], waypoints[1:]):
                node_seq.extend(matrix.path(a, b)[1:])
            coords = [[net.node(n).x_m, net.node(n).y_m] for n in node_seq]
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": coords},
                    "properties": {
                        "truck_id": truck_id,
                        "trip_index": trip_index,
                        "load_kg": trip.load_kg,
                        "distance_m": trip.distance_m,
                    },
                }
            )
    return {"type": "FeatureCollection", "features": features}


def write_geojson(collection: dict, path: str) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n")
