"""The order of the rows of the input tables, and the values of the node
ids, do not change a plan.

Nodes are numbered by id, edges relaxed so that equal costs tie toward
the smaller node id, and demands aggregated and snapped by building id,
so shuffling the rows of ``nodes.csv``, ``edges.csv`` and
``buildings.csv`` of a city without turns must leave every written plan
file byte-identical, by time and by distance. Ties compare node ids
only by order, so relabelling every node n -> 3n + 7, which keeps that
order, must leave every file byte-identical too, apart from the
``node_id`` column of ``stops.csv``. Small seeded synthetic grids are
tie-rich: every block has the same length, so many paths cost the same.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from mswplan import synth
from mswplan.pipeline import load_scenario_config, run_pipeline

#: (seed, grid_x, grid_y, buildings a block)
CITIES = [(1, 3, 3, 4), (2, 5, 4, 2), (3, 4, 6, 3), (4, 6, 6, 1)]
TABLES = ("nodes.csv", "edges.csv", "buildings.csv")
#: the files ``run_pipeline`` writes, by their key in ``PipelineResult.files``
COMPARED = ("stops", "plan", "summary", "routes")


def write_scenario(city_dir, objective: str) -> str:
    cfg = city_dir / f"{objective}.cfg"
    cfg.write_text("network.nodes=nodes.csv\nnetwork.edges=edges.csv\n"
                   "buildings=buildings.csv\ndepot.x_m=0\ndepot.y_m=0\n"
                   f"objective={objective}\n")
    return str(cfg)


def plan_files(cfg: str, out_dir) -> dict[str, bytes]:
    files = run_pipeline(load_scenario_config(cfg), str(out_dir)).files
    return {key: Path(files[key]).read_bytes() for key in COMPARED}


@pytest.mark.parametrize("seed, grid_x, grid_y, per_block", CITIES,
                         ids=[f"city{c[0]}" for c in CITIES])
def test_shuffled_input_rows_leave_the_plan_byte_identical(
        tmp_path, seed, grid_x, grid_y, per_block):
    spec = synth.SyntheticCitySpec(seed=seed, grid_x=grid_x, grid_y=grid_y,
                                   buildings_per_block=per_block)
    original, shuffled = tmp_path / "original", tmp_path / "shuffled"
    synth.write_city(spec, str(original))
    synth.write_city(spec, str(shuffled))
    rng = random.Random(seed)
    for name in TABLES:
        header, *rows = (shuffled / name).read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        (shuffled / name).write_text(header + "".join(rows))
        assert (shuffled / name).read_bytes() != (original / name).read_bytes()
    for objective in ("time", "distance"):
        want = plan_files(write_scenario(original, objective), original / objective)
        got = plan_files(write_scenario(shuffled, objective), shuffled / objective)
        for name in COMPARED:
            assert got[name] == want[name], f"{objective}: {name} differs"


def relabel(n: str) -> str:
    return str(3 * int(n) + 7)


@pytest.mark.parametrize("seed, grid_x, grid_y, per_block", CITIES,
                         ids=[f"city{c[0]}" for c in CITIES])
def test_relabelled_nodes_leave_the_plan_byte_identical(
        tmp_path, seed, grid_x, grid_y, per_block):
    spec = synth.SyntheticCitySpec(seed=seed, grid_x=grid_x, grid_y=grid_y,
                                   buildings_per_block=per_block)
    original, relabelled = tmp_path / "original", tmp_path / "relabelled"
    synth.write_city(spec, str(original))
    synth.write_city(spec, str(relabelled))
    # the id column of nodes.csv, the two end columns of edges.csv
    for name, ends in (("nodes.csv", 1), ("edges.csv", 2)):
        header, *rows = (original / name).read_text().splitlines(keepends=True)
        (relabelled / name).write_text(header + "".join(
            ",".join([*map(relabel, cells[:ends]), *cells[ends:]])
            for cells in (row.split(",") for row in rows)))
        assert (relabelled / name).read_bytes() != (original / name).read_bytes()
    for objective in ("time", "distance"):
        want = plan_files(write_scenario(original, objective), original / objective)
        got = plan_files(write_scenario(relabelled, objective),
                         relabelled / objective)
        for name in ("plan", "summary", "routes"):
            assert got[name] == want[name], f"{objective}: {name} differs"
        # stop_id,node_id,...: the node column relabelled, the rest kept
        want_rows = [row.split(",") for row in want["stops"].decode().splitlines()]
        want_rows[1:] = [[r[0], relabel(r[1]), *r[2:]] for r in want_rows[1:]]
        got_rows = [row.split(",") for row in got["stops"].decode().splitlines()]
        assert got_rows == want_rows, f"{objective}: stops differs"
