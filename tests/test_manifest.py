"""Same bytes: the sha256 of every file ``run_pipeline`` writes for a
fixed set of plans, against the manifest in ``tests/golden``.

The plans are cities 16, 17 and 40 of three synthetic city shapes, each
by time and by distance, plus both ``demo/city3x3`` configs. The shapes
are a 9x9 grid with seven buildings a block, a 16x16 grid with one
building a block at an 800 m radius, and a 22x22 grid with one building
a block at a 900 m radius whose stops open only on every fourth
intersection along each axis and whose turns carry 60 s per U-turn and
10 s per bend (a turn that changes heading). Every city config carries
an ``existing.*`` summary, so each plan also writes the comparison.

A change that means to change plans rewrites the manifest with
``PYTHONPATH=src python tests/test_manifest.py``, which prints each
entry it changed, added or removed, and lists those files.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from helpers import uturn_and_bend_penalties
from mswplan import network, synth
from mswplan.pipeline import load_scenario_config, run_pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO = os.path.join(HERE, "..", "demo")
MANIFEST = os.path.join(HERE, "golden", "manifest.json")

CITIES = (16, 17, 40)

EXISTING = {
    "name": "dumpster-collection", "n_trucks": "16",
    "truck_capacity_kg": "18000", "n_stops": "381", "avg_stop_time_s": "900",
    "avg_route_km": "110", "total_km": "1756", "avg_route_h": "5.3",
    "total_time_h": "84.6", "energy_mj_day": "108907", "co_g_day": "142",
    "co2_g_day": "34197", "nox_g_day": "473",
}

# shape -> (grid, buildings a block, scenario keys, turns, candidate step)
SHAPES = {
    "dense_city": (9, 7, {}, False, None),
    "sparse_sprawl": (16, 1, {"coverage.radius_m": "800",
                              "coverage.max_stop_load_kg": "4000"}, False, None),
    "turn_penalties": (22, 1, {"coverage.radius_m": "900",
                               "coverage.max_stop_load_kg": "2000"}, True, 4),
}


def write_city(shape: str, seed: int, objective: str, out_dir: str) -> str:
    """Write a city of ``shape`` and its scenario config; returns the
    config path."""
    grid, per_block, keys, turns, step = SHAPES[shape]
    spec = synth.SyntheticCitySpec(seed=seed, grid_x=grid, grid_y=grid,
                                   buildings_per_block=per_block)
    paths = synth.write_city(spec, out_dir)
    lines = ["network.nodes=nodes.csv", "network.edges=edges.csv",
             "buildings=buildings.csv", "depot.x_m=0", "depot.y_m=0",
             f"objective={objective}"]
    if turns:
        pens = uturn_and_bend_penalties(network.load_nodes(paths["nodes"]),
                                        network.load_edges(paths["edges"]))
        with open(os.path.join(out_dir, "turns.csv"), "w") as fh:
            fh.write(",".join(network.TURN_HEADER) + "\n")
            fh.writelines(f"{i},{j},{pen!r}\n" for (i, j), pen in pens.items())
        lines.append("network.turns=turns.csv")
    if step:
        side = range(0, grid + 1, step)
        lines.append("coverage.candidate_nodes="
                     + ";".join(str(iy * (grid + 1) + ix) for iy in side for ix in side))
    lines += [f"{k}={v}" for k, v in keys.items()]
    lines += [f"existing.{k}={v}" for k, v in EXISTING.items()]
    cfg_path = os.path.join(out_dir, "scenario.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return cfg_path


def plan_digests(work: str) -> dict[str, str]:
    """``{plan/file name: sha256}`` of every file every plan writes."""
    plans = {f"city3x3/{name}": os.path.join(DEMO, "city3x3", f"{name}.cfg")
             for name in ("scenario", "scenario_with_baseline")}
    for shape in SHAPES:
        for seed in CITIES:
            for objective in ("time", "distance"):
                name = f"{shape}/{seed}/{objective}"
                city = os.path.join(work, name, "city")
                os.makedirs(city)
                plans[name] = write_city(shape, seed, objective, city)
    digests = {}
    for name, cfg_path in plans.items():
        out = os.path.join(work, name, "out")
        for path in run_pipeline(load_scenario_config(cfg_path), out).files.values():
            with open(path, "rb") as fh:
                digests[f"{name}/{os.path.basename(path)}"] = (
                    hashlib.sha256(fh.read()).hexdigest())
    return digests


def test_every_planned_file_matches_the_manifest(tmp_path):
    with open(MANIFEST) as fh:
        want = json.load(fh)
    got = plan_digests(str(tmp_path))
    differ = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert differ == [], f"files that differ from the manifest: {differ}"
    assert sorted(got) == sorted(want), "the set of planned files changed"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        digests = plan_digests(work)
    try:
        with open(MANIFEST) as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    with open(MANIFEST, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for what, names in (
            ("changed", [k for k in old.keys() & digests.keys() if old[k] != digests[k]]),
            ("added", digests.keys() - old.keys()),
            ("removed", old.keys() - digests.keys())):
        for name in sorted(names):
            print(f"{what} {name}")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
