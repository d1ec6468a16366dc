"""Fuzzing of the input readers.

Whatever a ``key=value`` file or a CSV table holds, reading it ends in a
loaded object or a typed error: a PlannerError with exit code 2 for a
scenario config, a summary file or a ``synth`` spec, and a DataError
for a table. A bare exception or a traceback fails the property.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import fields
from unittest import mock

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mswplan import coverage, impact, network, synth
from mswplan.cli import _exit_code, main
from mswplan.errors import DataError, PlannerError
from mswplan.pipeline import (SCENARIO_KEYS, ScenarioConfig, load_scenario_config,
                              load_summary)

DEMO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "demo"))

# every example rewrites one file under the test's tmp_path
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBERS = st.one_of(
    st.integers(-10, 10**6),
    st.integers(),
    st.integers(2**1024, 2**1100),  # past the float range
    st.floats(),
    st.floats(-1e4, 1e4),
).map(str)
WORDS = st.sampled_from(["", "nan", "-inf", "1e400", "0x10", "1_000", " 7 ",
                         "time", "distance", "network", "euclidean", "3;5;x",
                         "0;4", ";", "nodes.csv", "4t", "١٢", "1" + "0" * 400])
VALUES = st.one_of(NUMBERS, WORDS, st.text(max_size=12))

REQUIRED = {
    "network.nodes": os.path.join(DEMO, "four_stops", "nodes.csv"),
    "network.edges": os.path.join(DEMO, "four_stops", "edges.csv"),
    "buildings": os.path.join(DEMO, "four_stops", "buildings.csv"),
    "depot.x_m": "0",
    "depot.y_m": "-2000",
}


def kv_text(draw_keys: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in draw_keys.items())


def assert_config_error(exc: Exception) -> None:
    assert isinstance(exc, PlannerError), repr(exc)
    assert _exit_code(exc) == 2, repr(exc)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda base, extra: kv_text(base | extra).encode(),
        st.one_of(st.just(REQUIRED),
                  st.sets(st.sampled_from(sorted(REQUIRED)))
                  .map(lambda keys: {k: REQUIRED[k] for k in keys})),
        st.dictionaries(st.sampled_from(sorted(SCENARIO_KEYS)), VALUES,
                        max_size=6),
    ),
))
def test_scenario_config_loads_or_is_a_config_error(tmp_path, data):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(data)
    try:
        cfg = load_scenario_config(str(path))
    except Exception as exc:  # noqa: BLE001 - the property is about the type
        assert_config_error(exc)
    else:
        assert isinstance(cfg, ScenarioConfig)


SUMMARY_KEYS = sorted(f.name for f in fields(impact.ScenarioSummary))
with open(os.path.join(DEMO, "summaries", "proposed.cfg")) as _fh:
    PROPOSED = dict(line.split("=", 1) for line in _fh.read().splitlines()
                    if line and not line.startswith("#"))


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=300),
    st.dictionaries(st.sampled_from(SUMMARY_KEYS), VALUES, max_size=14)
    .map(lambda kv: kv_text(kv).encode()),
    # a valid summary with one value replaced
    st.tuples(st.sampled_from(SUMMARY_KEYS), VALUES)
    .map(lambda kv: kv_text(PROPOSED | dict([kv])).encode()),
))
def test_summary_loads_or_is_a_config_error(tmp_path, data):
    path = tmp_path / "summary.cfg"
    path.write_bytes(data)
    try:
        summary = load_summary(str(path))
    except Exception as exc:  # noqa: BLE001
        assert_config_error(exc)
    else:
        assert isinstance(summary, impact.ScenarioSummary)


SPEC_KEYS = sorted(f.name for f in fields(synth.SyntheticCitySpec)) + ["grid"]


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=200),
    st.dictionaries(st.sampled_from(SPEC_KEYS), VALUES, max_size=8)
    .map(lambda kv: kv_text(kv).encode()),
))
def test_synth_spec_writes_or_exits_2(tmp_path, data):
    spec = tmp_path / "spec.cfg"
    spec.write_bytes(data)
    made = []
    # the spec reader is under test, not the generator: a spec that reads
    # may ask for any grid size
    with mock.patch.object(synth, "write_city",
                           lambda s, out_dir: made.append(s) or {}):
        result = CliRunner().invoke(main, ["synth", str(spec), "--out",
                                           str(tmp_path / "city")])
    if result.exit_code == 0:
        assert len(made) == 1
        assert isinstance(made[0], synth.SyntheticCitySpec)
    else:
        assert result.exit_code == 2, (result.output, result.exception)
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert made == []


CELLS = st.one_of(NUMBERS, WORDS, st.text(max_size=8),
                  st.lists(st.integers(-3, 300), max_size=4)
                  .map(lambda ids: ";".join(map(str, ids))))
ROWS = st.lists(st.lists(CELLS, max_size=6), max_size=6)


CITY_NODES, CITY_EDGES = (os.path.join(DEMO, "city3x3", name)
                          for name in ("nodes.csv", "edges.csv"))


def load_turns(path: str) -> network.RoadNetwork:
    """The city3x3 demo network with the turns file at ``path``."""
    return network.load_network(CITY_NODES, CITY_EDGES, path)


# turn rows of three small integer-like cells: edge indices inside the
# city's range and just outside it, the pairs that are turns, and
# penalties that are fine, negative, NaN or infinite
EDGES = network.load_edges(CITY_EDGES)
TURN_PAIRS = [(a, b) for a, ea in enumerate(EDGES) for b, eb in enumerate(EDGES)
              if ea.to_id == eb.from_id]
EDGE_INDEX = st.one_of(st.integers(0, len(EDGES) - 1),
                       st.sampled_from([-1, len(EDGES), len(EDGES) + 1]))
PENALTY = st.one_of(st.integers(-5, 120), st.sampled_from(["nan", "inf", "-inf"]),
                    st.floats())
TURN_ROW = st.tuples(
    st.one_of(st.sampled_from(TURN_PAIRS), st.tuples(EDGE_INDEX, EDGE_INDEX)),
    PENALTY).map(lambda row: [*row[0], row[1]])
# and now and then the first row again at the end
TURN_ROWS = st.lists(TURN_ROW, max_size=6).flatmap(
    lambda rows: st.sampled_from([rows, rows + rows[:1]]))


# each loader with the type of what it loads
LOADERS = [
    (network.load_nodes, network.NODE_HEADER, list),
    (network.load_edges, network.EDGE_HEADER, list),
    (load_turns, network.TURN_HEADER, network.RoadNetwork),
    (coverage.load_buildings, coverage.BUILDING_HEADER, list),
    (coverage.load_stops, coverage.STOP_HEADER, list),
    (impact.load_factors, impact.FACTOR_HEADER, dict),
]


def table_bytes(header: list[str], rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8", "surrogatepass")


def table_cases(loader: int):
    """(loader, bytes of a table for it): rows of any cells, the header then
    any bytes, or any bytes; for the turns table also turn rows."""
    load, header, _ = LOADERS[loader]
    rows = st.one_of(ROWS, TURN_ROWS) if load is load_turns else ROWS
    return st.tuples(st.just(loader), st.one_of(
        rows.map(lambda rows: table_bytes(header, rows)),
        st.binary(max_size=120).map(lambda b: (",".join(header) + "\n").encode() + b),
        st.binary(max_size=120),
    ))


TURNS = next(k for k, (load, _, _) in enumerate(LOADERS) if load is load_turns)
A_TURN = list(TURN_PAIRS[0])


def turns_case(*rows):
    return TURNS, table_bytes(network.TURN_HEADER, list(rows))


@settings(FUZZ, max_examples=200)
@given(case=st.sampled_from(range(len(LOADERS))).flatmap(table_cases))
# a turns table for each bad turn row: unknown edge, non-adjacent edges,
# bad penalty and repeated pair
@example(case=turns_case(A_TURN + [60], [0, len(EDGES), 60]))
@example(case=turns_case([0, 0, 60]))
@example(case=turns_case(A_TURN + [-5]))
@example(case=turns_case(A_TURN + [60], A_TURN + [0]))
def test_table_loads_or_is_a_data_error(tmp_path, case):
    loader, raw = case
    load, header, kind = LOADERS[loader]
    path = tmp_path / "table.csv"
    path.write_bytes(raw)
    try:
        loaded = load(str(path))
    except DataError as exc:
        # the demo's nodes and edges are sound: every fault is the turns file's
        assert load is not load_turns or str(path) in str(exc), str(exc)
    else:
        assert isinstance(loaded, kind)
