"""Every CSV table the planner writes reads back through its loader.

Each writer goes through ``network._write_table`` and each loader
through ``network._read_table``. For nodes, edges, buildings, stops and
impact factors, a table written, loaded and written again must give the
values it was written from and the same bytes both times (nodes and
edges load back as ``Node`` and ``Edge`` records, written as the fields
their header names): floats at the
ends of their range and with long ``repr``s, ``-0.0`` where the loader
allows it, and factor class names holding non-ASCII text, commas,
quotes and line breaks. A class name holding a carriage return is a
ValueError from the writer: the csv module before Python 3.13 does not
quote one, so it would read back as the end of a line. A table is
UTF-8 under a locale whose default encoding is ASCII too. Planned
stops with an overflow stop among them load back equal: a stop has no
field the table leaves out.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_under_ascii_locale
from mswplan import coverage, impact, network

ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True,
                      database=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])

EXTREMES = [5e-324, 1e300, 0.1 + 0.2, sys.float_info.max, 2.2250738585072014e-308,
            1 / 3, 0.0, -0.0]
#: Any finite float, the extremes drawn often.
FLOATS = st.one_of(st.sampled_from(EXTREMES + [-5e-324, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))
#: The floats a loader that wants a finite value >= 0 accepts, -0.0 too.
NON_NEGATIVE = st.one_of(st.sampled_from(EXTREMES),
                         st.floats(min_value=0.0, allow_infinity=False))
IDS = st.integers(-(2**63), 2**63)
#: NUL is left out: the csv reader of Python 3.10 rejects it.
NAMES = st.one_of(
    st.sampled_from(["4t", "العاشر", "door,to,door", 'the "4t" truck', 'a,"b",c',
                     "two\nlines", "0\r", "cr\r\nlf", " padded ", "", "Ø 18 t"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=12),
)


def round_trip(tmp_path, write, load, value):
    """``load`` of ``value`` written, and the bytes of both writes."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(value, str(first))
    loaded = load(str(first))
    write(loaded, str(second))
    return loaded, first.read_bytes(), second.read_bytes()


def assert_round_trip(tmp_path, write, load, value):
    loaded, written, rewritten = round_trip(tmp_path, write, load, value)
    assert loaded == value
    assert rewritten == written
    written.decode("utf-8")
    return loaded, written


def assert_records_round_trip(tmp_path, write, load, header, records):
    """Records load back as records of their type, equal field by field, from
    the table their fields give when written by name in header order."""
    loaded, written = assert_round_trip(tmp_path, write, load, records)
    assert [type(r) for r in loaded] == [type(r) for r in records]
    by_name = tmp_path / "by_name.csv"
    network._write_table(str(by_name), header,
                         ([getattr(r, name) for name in header] for r in records))
    assert written == by_name.read_bytes()


@ROUND_TRIP
@given(st.lists(st.builds(network.Node, IDS, FLOATS, FLOATS), max_size=8))
def test_nodes_round_trip(tmp_path, nodes):
    assert_records_round_trip(tmp_path, network.write_nodes, network.load_nodes,
                              network.NODE_HEADER, nodes)


@ROUND_TRIP
@given(st.lists(st.builds(network.Edge, IDS, IDS, FLOATS, FLOATS), max_size=8))
def test_edges_round_trip(tmp_path, edges):
    assert_records_round_trip(tmp_path, network.write_edges, network.load_edges,
                              network.EDGE_HEADER, edges)


@ROUND_TRIP
@given(st.lists(st.tuples(IDS, FLOATS, FLOATS, st.integers(0, 10**6)),
                max_size=8, unique_by=lambda row: row[0]))
def test_buildings_round_trip(tmp_path, rows):
    assert_round_trip(tmp_path, coverage.write_buildings, coverage.load_buildings,
                      rows)


@st.composite
def stop_tables(draw):
    """Stops with distinct ids, each listing demand ids no other lists."""
    ids = draw(st.lists(IDS, max_size=6, unique=True))
    demands = iter(draw(st.lists(IDS, min_size=3 * len(ids),
                                 max_size=3 * len(ids), unique=True)))
    return [coverage.StopPoint(sid, draw(IDS), draw(NON_NEGATIVE), draw(NON_NEGATIVE),
                               [next(demands) for _ in range(draw(st.integers(0, 3)))])
            for sid in ids]


@ROUND_TRIP
@given(stop_tables())
def test_stops_round_trip(tmp_path, stops):
    assert_round_trip(tmp_path, coverage.write_stops, coverage.load_stops, stops)


def test_planned_stops_with_an_overflow_stop_round_trip(tmp_path):
    # a 600 kg demand over the 520 kg cap gets a stop of its own
    net = network.RoadNetwork(
        [network.Node(0, 0.0, 0.0), network.Node(1, 200.0, 0.0)],
        [network.Edge(0, 1, 200.0, 40), network.Edge(1, 0, 200.0, 40)])
    demands = [coverage.DemandPoint(0, 0.0, 0.0, 0, 600.0),
               coverage.DemandPoint(1, 200.0, 0.0, 0, 10.0)]
    cfg = coverage.CoverageConfig(max_stop_load_kg=520.0)
    stops = coverage.place_stops(net, demands, cfg)
    assert coverage.verify_coverage(stops, demands, net, cfg).overflow_stop_ids == [0]
    assert_round_trip(tmp_path, coverage.write_stops, coverage.load_stops, stops)


FACTORS = st.builds(impact.ImpactFactors, *[NON_NEGATIVE] * 8)


@ROUND_TRIP
@given(st.dictionaries(NAMES, FACTORS, min_size=1, max_size=4))
def test_factors_round_trip(tmp_path, table):
    if any("\r" in name for name in table):
        with pytest.raises(ValueError, match="carriage return"):
            impact.write_factors(table, str(tmp_path / "factors.csv"))
        return
    assert_round_trip(tmp_path, impact.write_factors, impact.load_factors, table)


def test_negative_zero_and_the_smallest_float_keep_their_text(tmp_path):
    nodes = [network.Node(1, -0.0, 5e-324), network.Node(2, 0.1 + 0.2, 1e300)]
    _, written, _ = round_trip(tmp_path, network.write_nodes, network.load_nodes,
                               nodes)
    assert written == (b"id,x_m,y_m\n1,-0.0,5e-324\n"
                       b"2,0.30000000000000004,1e+300\n")


def test_tables_are_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "factors.csv"
    ran = run_under_ascii_locale("-c", (
        "import sys; from mswplan import impact; impact.write_factors("
        "{'\\u0627\\u0644\\u0639\\u0627\\u0634\\u0631': impact.ImpactFactors(1.0)}, "
        "sys.argv[1])"), str(path))
    assert ran.returncode == 0, ran.stderr
    assert list(impact.load_factors(str(path))) == ["العاشر"]
