"""``columns.read_columns``' byte-column path against the per-line readers.

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

from cityregions import columns
from cityregions.functions import LABELS, load_labels
from cityregions.regions import DEPARTURE, VISIT, load_events, load_tree
from cityregions.trajectory import TRIP_COLUMNS, load_stay_times, load_trips

from .oracles import (reference_compact_codes, reference_load_events, reference_load_labels,
                      reference_load_stay_times, reference_load_tree, reference_load_trips,
                      reference_rows)

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
    with mock.patch.object(columns, "_line_columns", wraps=columns._line_columns) as fallback:
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
        fields = [rng.integers(-2**63, 2**63 - 1, n, endpoint=True), t,
                  ((DEPARTURE, VISIT), rng.integers(0, 2, n))]
    elif loader is load_trips:
        fields = [t, lat, lon, t + 600.5, lon, lat, rng.random(n) * 1e4, rng.random(n) * 1e3]
    else:
        fields = [t, t + rng.random(n) * 1e4, lat, lon]
    buf = io.StringIO(newline="\n")
    columns.write_rows(buf, [(ids, taxi), *fields])
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
    with mock.patch.object(columns, "_line_columns", side_effect=AssertionError("fell back")), \
            mock.patch.object(columns, "_parse_column", wraps=columns._parse_column) as parse:
        got = loader(io.StringIO(text, newline="\n"))
    assert not [call for call in parse.call_args_list
                if call.args[0] in (columns.FLOAT_FIELD, columns.INT_FIELD)]
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


def _with_blank_lines(lines, where):
    """The lines as a text, with a blank line before the first, in the
    middle or after the last, as ``where`` names them."""
    lines = list(lines)
    for place in sorted(where, key=["trailing", "inside", "leading"].index):
        lines.insert({"leading": 0, "inside": len(lines) // 2, "trailing": len(lines)}[place], "")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("where", [("leading",), ("inside",), ("trailing",),
                                   ("leading", "inside", "trailing")], ids="+".join)
@pytest.mark.parametrize("kind", ["one_field", "four_fields"])
def test_blank_lines_stay_on_the_byte_path(kind, where):
    """A chunk with blank lines is read from its bytes, the blank lines
    skipped as the per-line path skips them: a one-field sample chunk and a
    four-field events chunk read bit for bit as the reference reads them,
    and never reach ``_line_columns``."""
    rng = np.random.default_rng(36)
    if kind == "one_field":
        lines = list(map(repr, rng.lognormal(1.0, 0.5, 2000).tolist()))

        def read(fh):
            return float_bits(columns.read_columns(fh, "sample", [columns.FLOAT_FIELD])[0])

        def reference(fh):
            return [bits(value) for value, in reference_rows(fh, "sample", [float])]
    else:
        lines = [f"t{i % 7};{i % 5};{1.2e9 + i * 0.37!r};{VISIT if i % 3 else DEPARTURE}"
                 for i in range(2000)]
        read, reference = (lambda fh: events_view(load_events(fh))), events_reference
    text = _with_blank_lines(lines, where)
    with mock.patch.object(columns, "_line_columns", side_effect=AssertionError("fell back")):
        got = read(io.StringIO(text, newline="\n"))
    assert got == reference(io.StringIO(text, newline="\n"))
    assert len(got) == len(lines)


_SPLIT_BYTES = [b";", b",", b"\r", b"\t", b" ", b"0", b"7", b".", b"a", b"Z", b"\x7f", b"\xe9"]


@st.composite
def _split_input(draw):
    """(buffer, sep, width): '\\n'-ended lines of fields over separators,
    whitespace, digits, letters, DEL and a non-ASCII byte; a line of 0
    fields is blank. Half the draws give every line ``width`` fields, so
    that a field holding no separator leaves the line that count."""
    sep = draw(st.sampled_from([b";", b","]))
    width = draw(st.integers(1, 4))
    field = st.lists(st.sampled_from(_SPLIT_BYTES), max_size=4).map(b"".join)
    counts = st.just(width) if draw(st.booleans()) else st.integers(0, width + 2)
    line = counts.flatmap(lambda k: st.lists(field, min_size=k, max_size=k)).map(sep.join)
    lines = draw(st.lists(line, min_size=1, max_size=12))
    return b"".join(line + b"\n" for line in lines), sep, width


@settings(max_examples=1000, deadline=None)
@given(_split_input())
@example((b"1;2.5\n3;4\n", b";", 2))  # every line of the asked count: bounds as they stand
@example((b"\n2.5\n\n", b";", 1))  # blank lines among one-field ones
@example((b"a,b c\n\xe9,\t\n,\n", b",", 2))
def test_split_bounds_each_field_as_bytes_split(drawn):
    """``_split`` gives each line's '\\n', its field count as
    ``bytes.split`` counts them (0 for a blank line), its count of bytes
    outside 0x21..0x7e, and the bytes of its first ``width`` fields. So a
    line is clean, of the asked count with no such byte, exactly when it is
    printable and ``split`` gives it that many fields."""
    raw, sep, width = drawn
    buf = np.frombuffer(raw, np.uint8)
    ends, count, odd, lo, hi = columns._split(buf, sep[0], width)
    lines = raw[:-1].split(b"\n")
    count, odd = (np.broadcast_to(a, len(lines)).tolist() for a in (count, odd))
    assert ends.tolist() == [i for i, byte in enumerate(raw) if byte == ord("\n")]
    for i, line in enumerate(lines):
        fields = line.split(sep)
        printable = all(0x21 <= byte <= 0x7e for byte in line)
        assert count[i] == (len(fields) if line else 0)
        assert odd[i] == sum(not 0x21 <= byte <= 0x7e for byte in line)
        assert (count[i] == width and odd[i] == 0) == (
            bool(line) and printable and len(fields) == width)
        if count[i] >= width:
            assert [raw[a:b] for a, b in zip(lo[:, i].tolist(), hi[:, i].tolist())] == \
                fields[:width]


@st.composite
def _coded_table(draw):
    """An id table and codes into it: possibly none, and possibly leaving ids unused."""
    table = draw(st.lists(st.text(max_size=3), min_size=1, max_size=12, unique=True))
    return table, np.array(draw(st.lists(st.integers(0, len(table) - 1), max_size=40)), np.int64)


@settings(max_examples=300, deadline=None)
@given(_coded_table())
@example((["a"], np.zeros(0, np.int64)))  # no codes
@example((["a"], np.zeros(3, np.int64)))  # a single id
@example((["c", "a", "b", "d"], np.array([3, 3, 0, 3])))  # ids no row uses, among used ones
def test_compact_codes_match_the_reference(drawn):
    """``compact_codes`` and ``TaxiCodes.ranked`` recode as ``np.unique``
    and ``searchsorted`` do: the ids in use, in table order (sorted order
    for ``ranked``), and each code's place among them, dtypes included."""
    table, taxi = drawn
    ranks = {tid: k for k, tid in enumerate(sorted(table))}
    by_rank = np.array([ranks[table[k]] for k in taxi.tolist()], np.int64)
    codes = columns.TaxiCodes()
    coded = codes.encode(table)
    for (ids, got), (want_ids, want) in [
            (columns.compact_codes(table, taxi), reference_compact_codes(table, taxi)),
            (codes.ranked(coded[taxi]), reference_compact_codes(sorted(table), by_rank))]:
        assert ids == want_ids
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


# number cells by the kernel width they need: 1 to 8 bytes, 9 to 16, 17 to 24,
# and cells the kernel refuses, which their parse reads
NUMBER_CELLS = {
    "int": {8: st.integers(-9, 99).map(str) | st.integers(-10**6, 10**7).map(str),
            16: st.integers(10**9, 10**15).map(str),
            24: st.integers(10**18, 2**63 - 1).map(str) | st.just(str(-2**63)),
            "refused": st.sampled_from(["+3", "0" * 24 + "7", "-" + "0" * 30 + "12"])},
    "float": {8: st.integers(0, 9).map(str) | st.sampled_from(["-0", "2.5", "0.125"]),
              16: st.floats(1.0, 1e6).map(lambda x: repr(round(x, 3))),
              24: st.floats(1e9, 2e9).map(repr) | st.floats(-1.0, 1.0).map(repr),
              "refused": st.sampled_from(["1e5", "12345678901234567890", "-1.5E-7",
                                          "123456789012345678901.25", "9" * 30, ".5e3"])},
}


@st.composite
def _number_chunks(draw):
    """(text, fields, chunk chars): lines of 2 to 5 number fields, each field
    of one drawn mix of kernel widths, so that fields share a width group or
    not and a refused cell sits among read ones; and a chunk size that may
    cut the text into several chunks."""
    kinds = draw(st.lists(st.sampled_from(["int", "float"]), min_size=2, max_size=5))
    mixes = [draw(st.lists(st.sampled_from([8, 16, 24, "refused"]), min_size=1, max_size=3,
                           unique=True)) for _ in kinds]
    cells = [st.one_of(*(NUMBER_CELLS[kind][w] for w in mix)) for kind, mix in zip(kinds, mixes)]
    lines = draw(st.lists(st.tuples(*cells).map(";".join), min_size=1, max_size=60))
    fields = [columns.INT_FIELD if kind == "int" else columns.FLOAT_FIELD for kind in kinds]
    chars = draw(st.sampled_from([columns._COLUMN_CHARS, 64, 97, 250]))
    return "\n".join(lines) + "\n", fields, chars


@settings(max_examples=300, deadline=None)
@given(_number_chunks())
@example(("7;1202084780.2618682;3\n12;1202085030.3353577;-4\n",
          [columns.INT_FIELD, columns.FLOAT_FIELD, columns.INT_FIELD], 1 << 19))
@example(("1;1e5;9223372036854775807;2.5\n-3;7;-9223372036854775808;0.125\n" * 9,
          [columns.INT_FIELD, columns.FLOAT_FIELD, columns.INT_FIELD, columns.FLOAT_FIELD], 97))
def test_mixed_width_number_fields(drawn):
    """``read_columns`` reads number fields of mixed widths, one kernel call
    per width group, bit for bit as ``_line_columns`` parses them, whether
    the fields share a group or not and across chunk cuts; clean text never
    falls back to the per-line path."""
    text, fields, chars = drawn
    lines = [line for line in text.split("\n") if line]
    want = columns._line_columns(lines, "number", fields)
    with mock.patch.object(columns, "_COLUMN_CHARS", chars), \
            mock.patch.object(columns, "_line_columns", side_effect=AssertionError("fell back")):
        got = columns.read_columns(io.StringIO(text, newline="\n"), "number", fields)
    assert [(c.dtype, c.view(np.uint64).tolist()) for c in got] == \
        [(c.dtype, c.view(np.uint64).tolist()) for c in want]


def _text_field_ids():
    """Ids of every length from 1 to ``_ID_BYTES``, ids that share their
    first 8 or 16 bytes, and runs of one id."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_-#!"
    ids = [alphabet[:n] for n in range(1, columns._ID_BYTES + 1)]
    for prefix in (alphabet[:8], alphabet[:16]):
        ids += [prefix + tail for tail in ("", "Z", "Y", "ZZ", "X" * 8, "X" * 9)]
    ids += ["t7"] * 3 + [alphabet[:9]] * 2
    return ids


@pytest.mark.parametrize("longest", [8, 16, 17, columns._ID_BYTES])
@pytest.mark.parametrize("sep", [";", "\n"])
def test_text_fields_across_word_boundaries(longest, sep):
    """``_text_column`` gives ``TaxiCodes.encode``'s codes, and no other id
    enters the table, for ids of each length up to ``longest`` (ids longer
    than a word, ids sharing 8 or 16 bytes, runs of one id), shuffled, the
    last ending on the buffer's last byte: a mask that kept one byte past a
    field's end would read the separator into the id."""
    ids = [tid for tid in _text_field_ids() if len(tid) <= longest]
    np.random.default_rng(longest).shuffle(ids)
    ids += ids[:3]  # a run that reaches the buffer's end
    buf = np.frombuffer(sep.join(ids).encode("ascii"), np.uint8)
    hi = np.cumsum([len(tid) + 1 for tid in ids]) - 1
    lo = hi - [len(tid) for tid in ids]
    assert hi[-1] == len(buf)
    codes = columns.TaxiCodes()
    got, texts = columns._text_column(buf, lo, hi, codes)
    assert sorted(texts) == sorted(set(ids)) == sorted(codes.index)
    assert got.tolist() == codes.encode(ids).tolist()
