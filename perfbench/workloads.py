"""The three seeded synthetic cities the benchmark plans.

Each workload is a grid city from ``mswplan.synth`` plus the scenario
keys that make one layer of the planner dominate the plan time. The
benchmark seed only moves buildings inside their blocks, so every seed
keeps the workload's sizes and character.
Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: A fixed incumbent summary, so every plan also runs the comparison
#: and writes the comparison reports (the impact layer).
EXISTING = {
    "name": "dumpster-collection",
    "n_trucks": "16",
    "truck_capacity_kg": "18000",
    "n_stops": "381",
    "avg_stop_time_s": "900",
    "avg_route_km": "110",
    "total_km": "1756",
    "avg_route_h": "5.3",
    "total_time_h": "84.6",
    "energy_mj_day": "108907",
    "co_g_day": "142",
    "co2_g_day": "34197",
    "nox_g_day": "473",
}

U_TURN_S = 60.0
TURN_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    buildings_per_block: int
    #: layers whose summed self time should be the largest in a plan
    intended: tuple[str, ...]
    keys: dict[str, str] = field(default_factory=dict)
    turns: bool = False
    #: open stops only on every n-th intersection along each axis
    candidate_step: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_city", grid=9, buildings_per_block=7,
                 intended=("vrp",)),
        Workload("sparse_sprawl", grid=16, buildings_per_block=1,
                 intended=("coverage",),
                 keys={"coverage.radius_m": "800",
                       "coverage.max_stop_load_kg": "4000"}),
        Workload("turn_penalties", grid=22, buildings_per_block=1,
                 intended=("network", "geometry"),
                 keys={"coverage.radius_m": "900",
                       "coverage.max_stop_load_kg": "2000"},
                 turns=True, candidate_step=4),
    )
}


def turn_penalties(nodes, edges) -> list[tuple[int, int, float]]:
    """(in edge, out edge, seconds) for every U-turn and every bend."""
    xy = {n.id: (n.x_m, n.y_m) for n in nodes}
    out_of: dict[int, list[int]] = {}
    for j, e in enumerate(edges):
        out_of.setdefault(e.from_id, []).append(j)
    rows = []
    for i, a in enumerate(edges):
        ax, ay = xy[a.to_id][0] - xy[a.from_id][0], xy[a.to_id][1] - xy[a.from_id][1]
        for j in out_of.get(a.to_id, ()):
            b = edges[j]
            if b.to_id == a.from_id:
                rows.append((i, j, U_TURN_S))
                continue
            bx, by = xy[b.to_id][0] - xy[b.from_id][0], xy[b.to_id][1] - xy[b.from_id][1]
            if ax * by - ay * bx != 0:
                rows.append((i, j, TURN_S))
    return rows


def write_workload(mswplan, wl: Workload, seed: int, out_dir: str) -> tuple[str, int]:
    """Write the city, its turns and its scenario config.

    Returns the config path and the number of turn penalties written.
    """
    spec = mswplan.synth.SyntheticCitySpec(
        seed=seed, grid_x=wl.grid, grid_y=wl.grid,
        buildings_per_block=wl.buildings_per_block,
    )
    paths = mswplan.synth.write_city(spec, out_dir)
    lines = [
        "network.nodes=nodes.csv",
        "network.edges=edges.csv",
        "buildings=buildings.csv",
        "depot.x_m=0",
        "depot.y_m=0",
        "objective=time",
    ]
    n_turns = 0
    if wl.turns:
        net = mswplan.network
        rows = turn_penalties(net.load_nodes(paths["nodes"]),
                              net.load_edges(paths["edges"]))
        with open(os.path.join(out_dir, "turns.csv"), "w") as fh:
            fh.write(",".join(net.TURN_HEADER) + "\n")
            fh.writelines(f"{i},{j},{pen!r}\n" for i, j, pen in rows)
        lines.append("network.turns=turns.csv")
        n_turns = len(rows)
    if wl.candidate_step:
        side = range(0, wl.grid + 1, wl.candidate_step)
        ids = [iy * (wl.grid + 1) + ix for iy in side for ix in side]
        lines.append("coverage.candidate_nodes=" + ";".join(map(str, ids)))
    lines += [f"{k}={v}" for k, v in wl.keys.items()]
    lines += [f"existing.{k}={v}" for k, v in EXISTING.items()]
    cfg_path = os.path.join(out_dir, "scenario.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return cfg_path, n_turns
