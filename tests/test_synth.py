import math

import pytest

from mswplan.network import RoadNetwork, UNREACHABLE, cost_matrix, load_network
from mswplan.synth import (MAX_BUILDINGS, MAX_NODES, SyntheticCitySpec,
                          gen_synthetic_city, write_city)


def test_two_by_two_grid_combinatorics():
    nodes, edges, _ = gen_synthetic_city(SyntheticCitySpec(grid_x=2, grid_y=2))
    assert len(nodes) == 9
    # 12 undirected street segments, each as two directed edges
    assert len(edges) == 24


def test_same_seed_gives_byte_identical_files(tmp_path):
    spec = SyntheticCitySpec(seed=123, buildings_per_block=4)
    a = write_city(spec, str(tmp_path / "a"))
    b = write_city(spec, str(tmp_path / "b"))
    for key in a:
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_different_seed_moves_buildings():
    _, _, b1 = gen_synthetic_city(SyntheticCitySpec(seed=1))
    _, _, b2 = gen_synthetic_city(SyntheticCitySpec(seed=2))
    assert b1 != b2


def test_zero_density_gives_empty_buildings(tmp_path):
    spec = SyntheticCitySpec(buildings_per_block=0)
    paths = write_city(spec, str(tmp_path))
    with open(paths["buildings"]) as fh:
        assert fh.read().strip() == "id,x_m,y_m,dwelling_units"
    net = load_network(paths["nodes"], paths["edges"])
    assert net.n_nodes == 16


def test_grid_is_strongly_connected():
    nodes, edges, _ = gen_synthetic_city(SyntheticCitySpec(grid_x=3, grid_y=2))
    net = RoadNetwork(nodes, edges)
    ids = net.node_ids
    m = cost_matrix(net, ids, ids, "time")
    assert all(c != UNREACHABLE for row in m.cost for c in row)


def test_buildings_fall_inside_their_blocks():
    spec = SyntheticCitySpec(seed=9, grid_x=4, grid_y=3, block_m=150.0)
    _, _, buildings = gen_synthetic_city(spec)
    assert len(buildings) == 4 * 3 * spec.buildings_per_block
    for _, x, y, units in buildings:
        assert 0.0 <= x <= 4 * 150.0
        assert 0.0 <= y <= 3 * 150.0
        assert units == spec.units_per_building


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        SyntheticCitySpec(grid_x=0)
    with pytest.raises(ValueError):
        SyntheticCitySpec(block_m=-10)


@pytest.mark.parametrize("field", ["block_m", "speed_kmh"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_spec_needs_finite_positive_block_and_speed(field, value):
    with pytest.raises(ValueError, match="must be finite and positive"):
        SyntheticCitySpec(**{field: value})


def test_spec_at_the_ceilings_is_accepted():
    # built only, never generated
    side = math.isqrt(MAX_NODES) - 1
    assert (side + 1) ** 2 <= MAX_NODES
    SyntheticCitySpec(grid_x=side, grid_y=side,
                      buildings_per_block=MAX_BUILDINGS // side ** 2)
    SyntheticCitySpec(grid_x=MAX_NODES // 2 - 1, grid_y=1,
                      buildings_per_block=0)


@pytest.mark.parametrize("grid_x, grid_y", [(10**9, 10**9),
                                            (MAX_NODES // 2, 1),
                                            (1, MAX_NODES)])
def test_spec_beyond_the_node_ceiling_is_rejected(grid_x, grid_y):
    with pytest.raises(ValueError, match=r"^grid_x, grid_y and buildings_per_block "
                                         r"give \d+ nodes and 0 buildings"):
        SyntheticCitySpec(grid_x=grid_x, grid_y=grid_y, buildings_per_block=0)


def test_spec_beyond_the_building_ceiling_is_rejected():
    side = 100
    per_block = MAX_BUILDINGS // side ** 2 + 1
    with pytest.raises(ValueError, match=r"give 10201 nodes and 1010000 buildings"):
        SyntheticCitySpec(grid_x=side, grid_y=side, buildings_per_block=per_block)
