"""``ingest.read_columns``' byte-column path against the per-line readers.

A clean chunk (printable ASCII but space, no blank or ragged line) is read
from its bytes: number fields by the decimal kernel, the few it refuses by
their parse, and text fields once per distinct run head; anything else
falls back to the per-line path. Each loader here reads mostly clean
artifacts with at most one trap line, and must return the per-line
reference's values bit for bit, or raise its error; a clean draw must not
reach the fallback.
"""

import io
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityregions import ingest
from cityregions.functions import LABELS, load_labels
from cityregions.regions import DEPARTURE, VISIT, load_events, load_tree
from cityregions.trajectory import TRIP_COLUMNS, load_stay_times, load_trips

from .oracles import (reference_load_events, reference_load_labels, reference_load_stay_times,
                      reference_load_tree, reference_load_trips)

CLEAN_CHARS = "".join(chr(c) for c in range(0x21, 0x7f) if chr(c) != ";")

# The clean text of each field kind, and the traps that may replace one field.
CLEAN = {
    "id": st.one_of(st.sampled_from(["t000", "t001", "7", "a_b", "#c", "x" * 45]),
                    st.text(CLEAN_CHARS, min_size=1, max_size=6)),
    "int": st.integers(-2**63, 2**63 - 1).map(str),
    "float": st.one_of(st.floats().map(repr),
                       st.sampled_from(["nan", "-nan", "Infinity", "-inf", "1e999", "+.5",
                                        "5.", "1E-320", "-0.0", "007"])),
    "kind": st.sampled_from([VISIT, DEPARTURE]),
    "label": st.sampled_from(LABELS),
}
TRAPS = {
    "id": st.sampled_from(["y" * 41 + "\x00", "a\x00", "#", "a\rb", "\ra", " a", "a ",
                           "a\tb", "é", "", "a\x0bb", "a\x1cb"]),
    "int": st.sampled_from(["9223372036854775808", "-9223372036854775809", "1_000", " 7",
                            "7 ", "+3", "1.0", "", "٣", "0x10", "1e3", "nan"]),
    "float": st.sampled_from(["1_000", " 2.5", "2.5 ", "0x1p3", "", "1.5e", "nan(1)",
                              "٣", "1,5", "infinit", "--1", "1e5\x00"]),
    "kind": st.sampled_from(["Visit", " visit", "visit\x00", "", "#visit", "visits"]),
    "label": st.sampled_from(["Other", "other ", "", "bogus", "other\r"]),
}
LINE_TRAPS = ["", " ", "\r", "\t", ";", "#"]
PAD = st.sampled_from(["", " ", "\t", "\r", "\x0c"])


@st.composite
def artifact(draw, kinds):
    """(text, clean): lines of the given field kinds, and whether no trap
    went in. A trap replaces one field, adds or drops a field of one line,
    pads one line with whitespace, or adds an odd line."""
    lines = draw(st.lists(st.tuples(*(CLEAN[k] for k in kinds)).map(list),
                          min_size=1, max_size=40))
    trap = draw(st.sampled_from(["none", "field", "ragged", "pad", "line"]))
    at = draw(st.integers(0, len(lines) - 1))
    if trap == "field":
        k = draw(st.integers(0, len(kinds) - 1))
        lines[at][k] = draw(TRAPS[kinds[k]])
    text_lines = [";".join(fields) for fields in lines]
    if trap == "ragged":
        text_lines[at] = draw(st.sampled_from([text_lines[at] + ";x", text_lines[at] + ";",
                                               text_lines[at].rpartition(";")[0]]))
    if trap == "pad":
        text_lines[at] = draw(PAD) + text_lines[at] + draw(PAD)
    if trap == "line":
        text_lines.insert(at, draw(st.sampled_from(LINE_TRAPS)))
    ending = draw(st.sampled_from(["\n", ""]))
    return "\n".join(text_lines) + ending, trap == "none"


def read(reader, text):
    """The reader's value, or the type and message of what it raised."""
    try:
        return reader(io.StringIO(text, newline="\n"))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def bits(x):
    return struct.pack("<d", x)


def same_as_reference(loader, reference, view, text, clean):
    """The loader's view of its value equals the reference's, or both raise
    alike; a clean text never reaches the per-line path."""
    expected = read(reference, text)
    with mock.patch.object(ingest, "_line_columns", wraps=ingest._line_columns) as fallback:
        got = read(loader, text)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert view(got) == expected
    if clean:
        assert not fallback.called


def row_ids(table):
    assert list(table.taxi_ids) == sorted(set(table.taxi_ids))
    return [table.taxi_ids[k] for k in table.taxi.tolist()]


def float_bits(column):
    assert column.dtype == np.float64
    return list(map(bits, column.tolist()))


def events_view(table):
    assert (table.region.dtype, table.visit.dtype) == (np.int64, bool)
    return list(zip(row_ids(table), table.region.tolist(), float_bits(table.t),
                    table.visit.tolist()))


def events_reference(fh):
    return [(e.taxi_id, e.region_id, bits(e.timestamp), e.kind == VISIT)
            for e in reference_load_events(fh)]


class TestLoadersMatchPerLineReaders:
    @settings(max_examples=300, deadline=None)
    @given(artifact(["id", "int", "float", "kind"]))
    def test_events(self, drawn):
        same_as_reference(load_events, events_reference, events_view, *drawn)

    @settings(max_examples=300, deadline=None)
    @given(artifact(["id"] + ["float"] * len(TRIP_COLUMNS)))
    def test_trips(self, drawn):
        def view(table):
            return [list(row) for row in zip(row_ids(table),
                                             *(float_bits(c) for c in table.columns()))]

        def reference(fh):
            return [[tid, *map(bits, numbers)] for tid, *numbers in reference_load_trips(fh)]

        same_as_reference(load_trips, reference, view, *drawn)

    @settings(max_examples=300, deadline=None)
    @given(artifact(["id", "float", "float", "float", "float"]))
    @example(("a;inf;inf;0;0\nb;-1e308;1e308;0;0\n", True))  # NaN and inf, as float gives
    def test_stops(self, drawn):
        def reference(fh):
            return list(map(bits, reference_load_stay_times(fh)))

        same_as_reference(load_stay_times, reference, float_bits, *drawn)

    @settings(max_examples=300, deadline=None)
    @given(artifact(["int", "float", "float", "float", "float", "int"]))
    def test_tree(self, drawn):
        def view(leaves):
            assert (leaves.region.dtype, leaves.visit_count.dtype) == (np.int64, np.int64)
            region, *box, count = leaves.columns()
            return [[r, *b, c] for r, *b, c in
                    zip(region.tolist(), *map(float_bits, box), count.tolist())]

        def reference(fh):
            return [[r, *map(bits, box), c] for r, *box, c in reference_load_tree(fh)]

        same_as_reference(load_tree, reference, view, *drawn)

    @settings(max_examples=300, deadline=None)
    @given(artifact(["int", "label", "float", "float", "float"]))
    def test_labels(self, drawn):
        same_as_reference(load_labels, reference_load_labels, lambda labels: labels, *drawn)


@pytest.mark.parametrize("line", [
    " a;1;2;visit", "a;1;2;visit ", "\ta;1;2;visit", "a;1;2;visit\r", "a ;1;2;visit",
    "a\x00;1;2;visit", "a\rb;1;2;visit", "#a;1;2;visit", "é;1;2;visit", "x" * 41 + ";1;2;visit",
    "a;1_000;2;visit", "a;1;1_000;visit", "a;9223372036854775808;2;visit", "a; 1;2;visit",
    "a;1;nan;visit", "a;1;-nan;visit", "a;1;Infinity;visit", "a;1;2;visit;", "a;1;2",
    "a;1;2;Visit", "", "   ", ";;;",
])
def test_one_odd_line_among_clean_ones(line):
    text = "t000;5;1.5;visit\nt000;6;2.5;departure\n" + line + "\nt001;7;3.5;visit\n"
    same_as_reference(load_events, events_reference, events_view, text, False)


def _clean_text(loader):
    """A clean multi-MB artifact for the loader, its float cells printed by
    ``_float_cells``: times, coordinates and lengths, most of 17 digits."""
    rng = np.random.default_rng(15)
    n = 80_000
    ids = tuple(f"t{k}" for k in range(500))
    taxi = np.sort(rng.integers(0, len(ids), n))
    t = 1.2e9 + rng.random(n) * 1e6
    lat, lon = rng.uniform(39.4, 41.1, n), rng.uniform(115.4, 117.5, n)
    if loader is load_events:
        columns = [rng.integers(-2**63, 2**63 - 1, n, endpoint=True), t,
                   ((DEPARTURE, VISIT), rng.integers(0, 2, n))]
    elif loader is load_trips:
        columns = [t, lat, lon, t + 600.5, lon, lat, rng.random(n) * 1e4, rng.random(n) * 1e3]
    else:
        columns = [t, t + rng.random(n) * 1e4, lat, lon]
    buf = io.StringIO(newline="\n")
    ingest.write_rows(buf, [(ids, taxi), *columns])
    return buf.getvalue()


CLEAN_VIEWS = {
    load_events: (events_view, events_reference),
    load_trips: (lambda table: [list(row) for row in zip(row_ids(table),
                                                         *map(float_bits, table.columns()))],
                 lambda fh: [[tid, *map(bits, numbers)]
                             for tid, *numbers in reference_load_trips(fh)]),
    load_stay_times: (float_bits, lambda fh: list(map(bits, reference_load_stay_times(fh)))),
}


@pytest.mark.parametrize("loader", list(CLEAN_VIEWS), ids=lambda loader: loader.__name__)
def test_clean_artifacts_never_fall_back(loader):
    """A clean multi-MB artifact is read from its bytes in every chunk, and
    each of its number fields, 17-digit ones included, by the decimal
    kernel: a guard or a kernel that refused clean text would give back the
    whole gain unseen."""
    text = _clean_text(loader)
    assert len(text) > 3 << 20
    cells = text.replace("\n", ";").split(";")
    digits = [len(cell.lstrip("-").replace(".", "")) for cell in cells]
    assert digits.count(17) > text.count("\n") // 2
    with mock.patch.object(ingest, "_line_columns", side_effect=AssertionError("fell back")), \
            mock.patch.object(ingest, "_parse_column", wraps=ingest._parse_column) as parse:
        got = loader(io.StringIO(text, newline="\n"))
    assert not [call for call in parse.call_args_list
                if call.args[0] in (ingest.FLOAT_FIELD, ingest.INT_FIELD)]
    view, reference = CLEAN_VIEWS[loader]
    assert view(got) == reference(io.StringIO(text, newline="\n"))


def test_a_wide_id_does_not_widen_its_chunk():
    """One 20,000-byte taxi id among 10,000 lines sends its chunk to the
    per-line path, not to a bytes field that wide on every line."""
    lines = [f"t{i % 50};{i % 7};{1.2e9 + i + 0.5!r};{VISIT if i % 2 else DEPARTURE}"
             for i in range(10_000)]
    lines.insert(5_000, "x" * 20_000 + f";3;1.5;{VISIT}")
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        table = load_events(io.StringIO(text, newline="\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert events_view(table) == events_reference(io.StringIO(text, newline="\n"))
