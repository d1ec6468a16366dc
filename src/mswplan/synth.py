"""Seeded synthetic grid cities for demos and property tests."""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from .coverage import write_buildings
from .errors import DataError
from .network import Edge, Node, write_edges, write_nodes


#: The largest city a spec may ask for; a 34x34 grid (1225 nodes, 8092
#: buildings) already takes seconds to plan.
MAX_NODES, MAX_BUILDINGS = 100_000, 1_000_000


@dataclass(frozen=True)
class SyntheticCitySpec:
    seed: int = 0
    grid_x: int = 3  # blocks horizontally
    grid_y: int = 3  # blocks vertically
    block_m: float = 200.0
    buildings_per_block: int = 7
    units_per_building: int = 8
    speed_kmh: float = 40.0

    def __post_init__(self):
        if self.grid_x < 1 or self.grid_y < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        if not (0 < self.block_m < math.inf and 0 < self.speed_kmh < math.inf):
            raise ValueError("block_m and speed_kmh must be finite and positive")
        if self.buildings_per_block < 0 or self.units_per_building < 0:
            raise ValueError("densities must be non-negative")
        nodes = (self.grid_x + 1) * (self.grid_y + 1)
        buildings = self.grid_x * self.grid_y * self.buildings_per_block
        if nodes > MAX_NODES or buildings > MAX_BUILDINGS:
            raise ValueError(
                f"grid_x, grid_y and buildings_per_block give {nodes} nodes and "
                f"{buildings} buildings, more than {MAX_NODES} or {MAX_BUILDINGS}")


def gen_synthetic_city(
    spec: SyntheticCitySpec,
) -> tuple[list[Node], list[Edge], list[tuple[int, float, float, int]]]:
    """Grid street network plus buildings scattered inside the blocks.

    Every street segment becomes two directed edges, so the network is
    strongly connected. Output is fully determined by the spec. Node ids
    run row by row, ``iy * (grid_x + 1) + ix``. Nodes and edges are the
    network's immutable named tuples, built by position: a city holds
    thousands, and a named tuple is the cheapest record to build.
    """
    nx, ny = spec.grid_x + 1, spec.grid_y + 1
    block, speed = spec.block_m, spec.speed_kmh
    nodes = [Node(iy * nx + ix, ix * block, iy * block)
             for iy in range(ny) for ix in range(nx)]
    edges: list[Edge] = []
    for iy in range(ny):  # east-west streets
        for a in range(iy * nx, iy * nx + nx - 1):
            edges += Edge(a, a + 1, block, speed), Edge(a + 1, a, block, speed)
    for ix in range(nx):  # north-south streets
        for a in range(ix, ix + (ny - 1) * nx, nx):
            edges += Edge(a, a + nx, block, speed), Edge(a + nx, a, block, speed)

    rng = random.Random(spec.seed)
    buildings: list[tuple[int, float, float, int]] = []
    bid = 0
    for by in range(spec.grid_y):
        for bx in range(spec.grid_x):
            for _ in range(spec.buildings_per_block):
                x = (bx + rng.random()) * block
                y = (by + rng.random()) * block
                buildings.append((bid, x, y, spec.units_per_building))
                bid += 1
    return nodes, edges, buildings


def write_city(spec: SyntheticCitySpec, out_dir: str) -> dict[str, str]:
    """Write nodes.csv / edges.csv / buildings.csv; returns their paths.

    A directory or file that cannot be written is a DataError.
    """
    nodes, edges, buildings = gen_synthetic_city(spec)
    paths = {
        "nodes": os.path.join(out_dir, "nodes.csv"),
        "edges": os.path.join(out_dir, "edges.csv"),
        "buildings": os.path.join(out_dir, "buildings.csv"),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_nodes(nodes, paths["nodes"])
        write_edges(edges, paths["edges"])
        write_buildings(buildings, paths["buildings"])
    except OSError as exc:
        raise DataError(f"cannot write the city to {out_dir}: {exc}") from exc
    return paths
