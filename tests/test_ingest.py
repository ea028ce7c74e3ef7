import contextlib
import io
import itertools
import math
import os
import tempfile
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityregions import ingest
from cityregions.ingest import (CityBounds, GridCounts, Trace, clip_to_bounds, load_grid_counts,
                                parse_trace_file, parse_trace_files,
                                write_canonical, write_grid_counts, write_rows)

from .oracles import (GpsPoint, id_column, points_of, reference_parse_trace,
                      reference_write_canonical, reference_write_rows, trace_of)

BEIJING = CityBounds(39.41, 41.08, 115.37, 117.5)


@contextlib.contextmanager
def _files(blobs):
    """The paths of the blobs, each written as a file in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{k}.txt") for k in range(len(blobs))]
        for path, blob in zip(paths, blobs):
            with open(path, "wb") as fh:
                fh.write(blob)
        yield paths


def parse_lines(text, fmt, **kw):
    """The fixes parsed from the text written as a file, as GpsPoints, and the report."""
    with _files([text.encode("utf-8")]) as (path,):
        trace, report = parse_trace_file(path, fmt, **kw)
    return points_of(trace), report


class TestCanonical:
    def test_paper_example_line(self):
        points, report = parse_lines("42;1202921600;39.92911;116.44933\n", "canonical")
        assert points == [GpsPoint("42", 1202921600.0, 39.92911, 116.44933)]
        assert (report.accepted, report.deduplicated, report.rejected) == (1, 0, 0)

    def test_empty_file(self):
        points, report = parse_lines("", "canonical")
        assert points == []
        assert report.total_lines == 0 and report.rejected == 0

    def test_duplicate_lines_dedup_keeps_first(self):
        text = "1;100;39.0;116.0\n1;100;39.0;116.0\n"
        points, report = parse_lines(text, "canonical")
        assert len(points) == 1
        assert report.deduplicated == 1 and report.accepted == 1

    def test_dedup_is_per_taxi_timestamp(self):
        text = "1;100;39.0;116.0\n2;100;39.5;116.5\n1;100;40.0;117.0\n"
        points, _ = parse_lines(text, "canonical")
        assert len(points) == 2
        # first occurrence wins
        assert [p for p in points if p.taxi_id == "1"][0].lat == 39.0

    def test_malformed_line_recorded_with_line_number(self):
        text = "1;100;39.0;116.0\nnot a line\n1;oops;39.0;116.0\n"
        points, report = parse_lines(text, "canonical")
        assert len(points) == 1
        assert [lineno for lineno, _ in report.rejects] == [2, 3]

    def test_out_of_range_coordinates_rejected(self):
        text = "1;100;95.0;116.0\n1;200;39.0;181.0\n1;-5;39.0;116.0\n1;nan;39.0;116.0\n"
        points, report = parse_lines(text, "canonical")
        assert points == []
        assert report.rejected == 4

    def test_counts_partition_all_lines(self):
        text = ("1;100;39.0;116.0\n"
                "1;100;39.0;116.0\n"
                "garbage\n"
                "\n"
                "2;50;39.5;116.5\n")
        _, report = parse_lines(text, "canonical")
        assert report.accepted + report.deduplicated + report.rejected == report.total_lines
        assert report.total_lines == 5

    def test_grouped_by_taxi_sorted_by_time(self):
        text = ("9;300;39.0;116.0\n"
                "2;200;39.1;116.1\n"
                "9;100;39.2;116.2\n"
                "2;50;39.3;116.3\n")
        points, _ = parse_lines(text, "canonical")
        assert [(p.taxi_id, p.timestamp) for p in points] == [
            ("2", 50.0), ("2", 200.0), ("9", 100.0), ("9", 300.0)]

    def test_occupancy_round_trip(self):
        pts = [GpsPoint("7", 10.0, 39.5, 116.5, occupied=True),
               GpsPoint("7", 20.0, 39.6, 116.6, occupied=False),
               GpsPoint("7", 30.0, 39.7, 116.7)]
        buf = io.StringIO()
        write_canonical(trace_of(pts), buf)
        reparsed, report = parse_lines(buf.getvalue(), "canonical")
        assert reparsed == pts
        assert report.rejected == 0

    def test_parse_is_deterministic(self):
        text = "3;10;39.0;116.0\n1;5;39.9;116.9\n3;7;39.1;116.1\n"
        a = parse_lines(text, "canonical")
        b = parse_lines(text, "canonical")
        assert a[0] == b[0]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            parse_lines("", "nyc")

    def test_unreadable_source_is_fatal(self):
        with pytest.raises(OSError):
            parse_trace_file("/nonexistent/trace.txt", "canonical")


class TestAdapters:
    def test_rome_line(self):
        line = "156;2014-02-01 00:00:00.739166+01;POINT(41.8945463 12.4771871)\n"
        points, report = parse_lines(line, "rome")
        assert report.accepted == 1
        p = points[0]
        expected = datetime(2014, 2, 1, 0, 0, 0, 739166,
                            tzinfo=timezone(timedelta(hours=1))).timestamp()
        assert p.taxi_id == "156"
        assert p.timestamp == expected
        assert (p.lat, p.lon) == (41.8945463, 12.4771871)

    def test_rome_full_offset_and_short_fraction(self):
        line = "9;2014-02-01 12:30:00.5+01:00;POINT(41.9 12.5)\n"
        points, _ = parse_lines(line, "rome")
        expected = datetime(2014, 2, 1, 12, 30, 0, 500000,
                            tzinfo=timezone(timedelta(hours=1))).timestamp()
        assert points[0].timestamp == expected

    def test_rome_stamp_without_an_offset_rejected(self):
        # its time would be read in the machine's time zone
        points, report = parse_lines("1;2008-02-05 10:00:00;POINT(41.9 12.5)\n", "rome")
        assert points == []
        assert report.rejects == [(1, "timestamp without a UTC offset: '2008-02-05 10:00:00'")]

    def test_sanfrancisco_needs_taxi_id(self):
        with pytest.raises(ValueError, match="taxi_id"):
            parse_lines("37.75134 -122.39488 0 1213084687\n", "sanfrancisco")

    def test_sanfrancisco_line(self):
        points, _ = parse_lines("37.75134 -122.39488 1 1213084687\n",
                                "sanfrancisco", taxi_id="abboip")
        p = points[0]
        assert p == GpsPoint("abboip", 1213084687.0, 37.75134, -122.39488, True)

    def test_beijing_line_swaps_lon_lat_and_applies_offset(self):
        points, _ = parse_lines("1,2008-02-02 15:36:08,116.51172,39.92123\n",
                                "beijing", utc_offset_hours=8)
        p = points[0]
        expected = datetime(2008, 2, 2, 15, 36, 8,
                            tzinfo=timezone(timedelta(hours=8))).timestamp()
        assert p.timestamp == expected
        assert (p.lat, p.lon) == (39.92123, 116.51172)

    def test_beijing_malformed_timestamp_rejected(self):
        _, report = parse_lines("1,2008-13-45 99:00:00,116.5,39.9\n", "beijing")
        assert report.rejected == 1

    def test_beijing_id_holding_a_semicolon_rejected(self):
        # a ';' would split the id's trace.txt line into other fields
        points, report = parse_lines("1,2008-02-02 15:36:08,116.5,39.9\n"
                                     "a;b,2008-02-02 15:36:08,116.5,39.9\n", "beijing")
        assert [p.taxi_id for p in points] == ["1"]
        assert report.rejects == [(2, "taxi id holds ';': 'a;b'")]


def clip_points(pts):
    return points_of(clip_to_bounds(trace_of(pts), BEIJING))


class TestClip:
    def test_beijing_point_retained(self):
        pts = [GpsPoint("1", 0.0, 39.93, 116.45)]
        assert clip_points(pts) == pts

    def test_point_on_lat_min_retained(self):
        pts = [GpsPoint("1", 0.0, BEIJING.lat_min, 116.0)]
        assert clip_points(pts) == pts

    def test_origin_dropped(self):
        assert clip_points([GpsPoint("1", 0.0, 0.0, 0.0)]) == []

    def test_order_preserved(self):
        pts = [GpsPoint("1", 1.0, 40.0, 116.0), GpsPoint("1", 2.0, 0.0, 0.0),
               GpsPoint("1", 3.0, 40.5, 116.5), GpsPoint("2", 0.5, 40.0, 116.0)]
        assert [p.timestamp for p in clip_points(pts)] == [1.0, 3.0, 0.5]

    @given(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)), max_size=50))
    def test_idempotent(self, coords):
        pts = [GpsPoint("1", float(i), lat, lon) for i, (lat, lon) in enumerate(coords)]
        once = clip_to_bounds(trace_of(pts), BEIJING)
        assert points_of(clip_to_bounds(once, BEIJING)) == points_of(once)


class TestGridCounts:
    def test_round_trip(self):
        grid = GridCounts(BEIJING, 2, 3, (1, 2, 3, 4, 5, 6))
        buf = io.StringIO()
        write_grid_counts(grid, buf)
        buf.seek(0)
        assert load_grid_counts(buf) == grid

    def test_count_length_enforced(self):
        with pytest.raises(ValueError, match="expected 6 counts"):
            GridCounts(BEIJING, 2, 3, (1, 2, 3))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="invalid bounds"):
            CityBounds(40.0, 39.0, 116.0, 117.0)


# --------------------------------------------------- reader vs the reference

_NUMBERS = ["0", "-0", "1", "100", "100.0", "1e3", "-5", "nan", "inf", "-inf", "1_0",
            " 12 ", "abc", "", "1202921600", "39.92911", "116.44933", "-90", "90",
            "90.0000001", "-180.5", "181", "1e400", "0x10", "\u0661\u0662"]
_IDS = ["1", "2", "10", "a b", "", " 7", "\u00e9", "x\ty"]
_FLAGS = ["0", "1", "2", "", " 1", "true"]
_JUNK = "0123456789;,:.- +eE()TPOINTnaif\t\r\x0b\x1c\u2028\u00e9\ufffd"


def _stamps():
    padded = st.builds("{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
                       st.sampled_from([1, 1969, 1970, 2008, 9999]),
                       st.integers(0, 13), st.integers(0, 32), st.integers(0, 24),
                       st.integers(0, 60), st.integers(0, 61))
    odd = st.sampled_from(["2008-2-2 7:4:34", "2008-02-02  15:36:08", "2008-02-02T15:36:08",
                           "2008-02-02 15:36:08.5", " 2008-02-02 15:36:08 ",
                           "\uff12\uff10\uff10\uff18-02-02 15:36:08", "2008-02-02 15:36",
                           "2008-02-02 15:36:0", "", "garbage"])
    return st.one_of(padded, odd)


def _rome_stamps():
    return st.one_of(
        st.builds("2014-02-{:02d} {:02d}:30:00{}{}".format, st.integers(0, 30),
                  st.integers(0, 24), st.sampled_from(["", ".5", ".739166", ".1234567"]),
                  st.sampled_from(["+01", "+01:00", "-0530", "Z", ""])),
        st.sampled_from(["", "2014-02-01", "nonsense+01"]))


_FIELDS = {
    "canonical": lambda: st.one_of(
        st.tuples(st.sampled_from(_IDS), *[st.sampled_from(_NUMBERS)] * 3).map(";".join),
        st.tuples(st.sampled_from(_IDS), *[st.sampled_from(_NUMBERS)] * 3,
                  st.sampled_from(_FLAGS)).map(";".join)),
    "rome": lambda: st.builds("{};{};POINT({} {})".format, st.sampled_from(_IDS),
                              _rome_stamps(), st.sampled_from(_NUMBERS),
                              st.sampled_from(_NUMBERS)),
    "sanfrancisco": lambda: st.tuples(*[st.sampled_from(_NUMBERS)] * 2,
                                      st.sampled_from(_FLAGS),
                                      st.sampled_from(_NUMBERS)).map(" ".join),
    "beijing": lambda: st.builds("{},{},{},{}".format, st.sampled_from(_IDS), _stamps(),
                                 st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS)),
}


@st.composite
def _trace_text(draw, fmt):
    """A file of well-formed, near-miss and junk lines; lines recur so dedup works."""
    pool = draw(st.lists(st.one_of(_FIELDS[fmt](), st.text(_JUNK, max_size=30)),
                         min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), max_size=25))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\n\n", "\r", "\u2028"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\n")


def _bits(points):
    return [(p.taxi_id, p.timestamp.hex(), p.lat.hex(), p.lon.hex(), p.occupied)
            for p in points]


def _assert_files_match_reference(blobs, fmt, *, taxi_id=None, **kw):
    """parse_trace_files on the blobs written as files, against the
    reference parser over their lines end to end. The columns are sized by
    ``_line_count`` alone, so it must count the lines the reader reads."""
    with _files(blobs) as paths:
        capacity = sum(map(ingest._line_count, paths))
        trace, report = parse_trace_files([(path, fmt, taxi_id) for path in paths], **kw)
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(path, "rb")) for path in paths]
            ref_points, ref = reference_parse_trace(itertools.chain(*handles), fmt,
                                                    taxi_id=taxi_id, **kw)
    assert _bits(points_of(trace)) == _bits(ref_points)
    assert (report.total_lines, report.accepted, report.deduplicated, report.rejects) == (
        ref.total_lines, ref.accepted, ref.deduplicated, ref.rejects)
    assert report.accepted + report.deduplicated + report.rejected == report.total_lines
    assert capacity == report.total_lines
    return trace, report


_ADAPTER_KW = {"canonical": {}, "rome": {}, "sanfrancisco": {"taxi_id": "cab"},
               "beijing": {"utc_offset_hours": 8.0}}


class TestReaderMatchesReference:
    """The columnar reader gives the per-line parser's points and accounting."""

    @pytest.mark.parametrize("fmt", sorted(_FIELDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_text_and_binary_sources(self, fmt, data):
        text = data.draw(_trace_text(fmt))
        kw = dict(_ADAPTER_KW[fmt])
        if fmt == "beijing":
            kw["utc_offset_hours"] = data.draw(st.sampled_from([8.0, 0.0, -5.5, 0.1234567]))
        _assert_files_match_reference([text.encode("utf-8")], fmt, **kw)

    @pytest.mark.parametrize("fmt", sorted(_FIELDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes(self, fmt, data):
        lines = data.draw(st.lists(st.one_of(_FIELDS[fmt]().map(str.encode),
                                             st.binary(max_size=12)), max_size=12))
        blob = b"\n".join(lines)
        _assert_files_match_reference([blob], fmt, **_ADAPTER_KW[fmt])

    def test_file_reader_returns_the_same_points_as_columns(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_bytes(b"2,2008-02-02 15:36:08,116.5,39.9\r\n"
                         b"1,2008-2-2 7:4:34,116.4,39.8\n\n"
                         b"1,2008-02-02 07:04:34,116.0,39.0\n1,2008-02-02 07:0")
        trace, report = parse_trace_file(str(path), "beijing", utc_offset_hours=8.0)
        with open(path, "rb") as fh:
            ref_points, ref = reference_parse_trace(fh, "beijing", utc_offset_hours=8.0)
        assert isinstance(trace, Trace) and points_of(trace) == ref_points
        assert (report.accepted, report.deduplicated, report.rejects) == (
            ref.accepted, ref.deduplicated, ref.rejects)
        assert trace.taxi_ids == ("1", "2") and trace.offsets.tolist() == [0, 1, 2]


# two taxis and two timestamps, so (taxi id, timestamp) pairs recur within and across files
_KEYED = st.builds("{};{};{};{}".format, st.sampled_from(["1", "2"]), st.sampled_from(["5", "9"]),
                   st.sampled_from(["39.1", "39.2", "91"]), st.sampled_from(["116.1", "-181"]))


class TestReadsFilesInTurn:
    """Several files read as one: the reference parser over their lines end to end."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_reference_over_the_concatenated_lines(self, data):
        line = st.one_of(_KEYED, _FIELDS["canonical"](), st.just(""), st.text(_JUNK, max_size=20))
        files = data.draw(st.lists(st.lists(line, max_size=12), min_size=1, max_size=3))
        texts = ["".join(s + "\n" for s in lines) for lines in files]
        # the last line may end without a newline
        _assert_files_match_reference(
            [(text[:-1] if data.draw(st.booleans()) else text).encode() for text in texts],
            "canonical")

    @pytest.mark.parametrize("fmt,taxi_id,match", [("nyc", None, "unknown trace format"),
                                                   ("sanfrancisco", None, "taxi_id")])
    def test_entries_are_checked_before_any_file_is_read(self, tmp_path, fmt, taxi_id, match):
        good = tmp_path / "good.txt"
        good.write_text("1;5;39.1;116.1\n")
        with pytest.raises(ValueError, match=match):
            parse_trace_files([(str(good), "canonical", None),
                               (str(tmp_path / "missing.txt"), fmt, taxi_id)])

    def test_each_file_keeps_its_format_and_taxi_id(self, tmp_path):
        a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        a.write_text("39.1 116.1 1 5\n")
        b.write_text("39.2 116.2 0 5\nbad\n")
        c.write_text("cab1;5;40.0;117.0\ncab3;6;39.3;116.3\n")
        trace, report = parse_trace_files([(str(a), "sanfrancisco", "cab1"),
                                           (str(b), "sanfrancisco", "cab2"),
                                           (str(c), "canonical", None)])
        assert points_of(trace) == [GpsPoint("cab1", 5.0, 39.1, 116.1, True),
                               GpsPoint("cab2", 5.0, 39.2, 116.2, False),
                               GpsPoint("cab3", 6.0, 39.3, 116.3)]
        assert report.rejects == [(3, "expected 4 space-separated fields, got 1")]
        assert (report.total_lines, report.accepted, report.deduplicated) == (5, 3, 1)


class TestTrace:
    def _trace(self, path):
        trace, _ = parse_trace_file(str(path), "canonical")
        return trace

    def test_merge_keeps_the_earliest_trace_on_a_repeated_fix(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("2;5;39.0;116.0\n1;9;39.1;116.1;1\n")
        b.write_text("1;9;40.0;117.0\n1;3;39.2;116.2\n3;1;39.3;116.3\n")
        merged, report = parse_trace_files([(str(a), "canonical", None),
                                            (str(b), "canonical", None)])
        assert report.deduplicated == 1
        assert points_of(merged) == [GpsPoint("1", 3.0, 39.2, 116.2),
                                GpsPoint("1", 9.0, 39.1, 116.1, True),
                                GpsPoint("2", 5.0, 39.0, 116.0),
                                GpsPoint("3", 1.0, 39.3, 116.3)]

    def test_clip_drops_emptied_taxis(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1;1;0;0\n2;1;39.9;116.4\n2;2;0;0\n3;1;40;116\n")
        clipped = clip_to_bounds(self._trace(path), BEIJING)
        assert isinstance(clipped, Trace)
        assert clipped.taxi_ids == ("2", "3") and clipped.offsets.tolist() == [0, 1, 2]
        assert clipped.t.tolist() == [1.0, 1.0]

    def test_points_and_one_taxi_traces(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1;1;39.1;116.1\n1;2;39.2;116.2\n2;1;39.3;116.3;0\n")
        trace = self._trace(path)
        assert points_of(trace) == [GpsPoint("1", 1.0, 39.1, 116.1),
                                  GpsPoint("1", 2.0, 39.2, 116.2),
                                  GpsPoint("2", 1.0, 39.3, 116.3, False)]

    def test_canonical_writer_formats_columns_like_points(self):
        points = [GpsPoint("1", 5.0, -0.0, 1e-05), GpsPoint("1", 7.5, 40.0, 116.25, True),
                  GpsPoint("2", 2.0**53, 39.5, -116.0, False)]
        from_points = io.StringIO()
        write_canonical(trace_of(points), from_points)
        assert from_points.getvalue() == ("1;5;0;1e-05\n1;7.5;40;116.25;1\n"
                                          "2;9007199254740992.0;39.5;-116;0\n")
        reparsed, _ = parse_lines(from_points.getvalue(), "canonical")
        assert [p.lat for p in reparsed] == [0.0, 40.0, 39.5]


# ---------------------------------------- the block path and the line parser

# clean lines: (taxi id, stamp) keys recur with other coordinates, so repeats
# are deduplicated with the first read kept
_CLEAN_IDS = ["1", "2", "10", "#7", "a-b"]
_CLEAN_COORDS = ["116.40000", "116.5", "39.9", "40", "1e1", "-0", "+3.5", "0.00000", "9E-1"]
_CLEAN = {
    "beijing": lambda: st.builds("{},2008-02-{:02d} {:02d}:{:02d}:{:02d},{},{}".format,
                                 st.sampled_from(_CLEAN_IDS), st.integers(1, 3),
                                 st.sampled_from([0, 7, 23]), st.sampled_from([0, 30, 59]),
                                 st.sampled_from([0, 8, 59]), st.sampled_from(_CLEAN_COORDS),
                                 st.sampled_from(_CLEAN_COORDS)),
    "canonical": lambda: st.builds("{};{};{};{}".format, st.sampled_from(_CLEAN_IDS),
                                   st.sampled_from(["0", "5", "1202921600", "1.5", "9e8"]),
                                   st.sampled_from(_CLEAN_COORDS),
                                   st.sampled_from(_CLEAN_COORDS)),
}
_TRAPS = {
    "beijing": [
        b"1,2008-02-02T15:36:08,116.5,39.9", b"1,2008-02-02 15:36,116.5,39.9",
        b"1,+2008-02-02 15:36:08,116.5,39.9", b"1,+208-02-02 15:36:08,116.5,39.9",
        b"1,2008-02-02 15:36:60,116.5,39.9", b"1,2008-02-02 24:00:00,116.5,39.9",
        b"1,2008-02-30 15:36:08,116.5,39.9", b"1,0000-01-01 00:00:00,116.5,39.9",
        b"1,9999-12-31 23:59:59,116.5,39.9", b"1,1969-12-31 23:59:59,116.5,39.9",
        b"1,2008-02-02 15:36:08 ,116.5,39.9", b"1,2008-02-02 15:36:08,116.5,39.9,",
        b"#1,2008-02-02 15:36:08,116.5,39.9", b"1\x00,2008-02-02 15:36:08,116.5,39.9",
        b"1;2,2008-02-02 15:36:08,116.5,39.9", b"\xc3\xa9,2008-02-02 15:36:08,116.5,39.9",
        b" 1 ,2008-02-01 00:00:00,116.5,39.9", b",2008-02-02 15:36:08,116.5,39.9",
        b"1,2008-02-01 00:00:00,116.5,39.9\r", b"", b" \t", b"1,2008-02-02 15:36:08,116.5",
        b"1,2008-02-01 00:00:00,1_000,39.9", b"1,2008-02-01 00:00:00,nan,39.9",
        b"1,2008-02-01 00:00:00,116.5,-inf", b"1,2008-02-01 00:00:00,1e400,39.9",
        b"1,2008-02-01 00:00:00,0x10,39.9", b"1,2008-02-01 00:00:00,116.5,91",
        b"1,2008-02-01 00:00:00,-181,39.9", b"1,2008-02-01 00:00:00,116.5,1e",
        b"1,2008-02-01 00:00:00,116.5, 39.9", b"1,2008-02-01 00:00:00,116.5,39.9\xff",
        b"1,2008-02-01 00:00:00,\xe2\x82,39.9", b"x" * 70 + b",2008-02-01 00:00:00,116.5,39.9",
    ],
    "canonical": [
        b"1;100;39.9;116.5;1", b"1;100;39.9;116.5;2", b"1;100;39.9;116.5;", b"1;100;39.9",
        b"1;1_000;39.9;116.5", b"1;nan;39.9;116.5", b"1;100;-inf;116.5", b"1;1e400;39;116",
        b"1;0x10;39;116", b"1;100;91;116", b"1;100;39;-181", b"1;-5;39;116", b"1;1e;39;116",
        b"#1;100;39.9;116.5", b"1\x00;100;39.9;116.5", b"\xc3\xa9;100;39.9;116.5",
        b" 1 ;5;39.9;116.5", b";100;39.9;116.5", b"1;5;39.9;116.5\r", b"", b"\r",
        b"1;5;39.9; 116.5", b"1;100;39.9;116.5\xff", b"1,5,39.9,116.5",
        b"x" * 70 + b";100;39.9;116.5",
    ],
}


@st.composite
def _clean_files_and_a_trap(draw, fmt):
    """1-3 files of clean lines with at most one trap line among them; a
    file may end without '\\n'."""
    files = draw(st.lists(st.lists(_CLEAN[fmt]().map(str.encode), max_size=30),
                          min_size=1, max_size=3))
    if draw(st.booleans()):
        lines = files[draw(st.integers(0, len(files) - 1))]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_TRAPS[fmt])))
    blobs = [b"".join(line + b"\n" for line in lines) for lines in files]
    return [blob[:-1] if blob and draw(st.booleans()) else blob for blob in blobs]


class TestBlockPath:
    """Clean lines are read in numpy blocks and every other line by the line
    parser, with the per-line reference's points, accounting and rejects."""

    @pytest.mark.parametrize("fmt", ["beijing", "canonical"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_trap_in_clean_files(self, fmt, data):
        blobs = data.draw(_clean_files_and_a_trap(fmt))
        kw = {"utc_offset_hours": data.draw(st.sampled_from([8.0, -5.5, 0.1234567]))}
        block_bytes = data.draw(st.sampled_from([1, 90, ingest._BLOCK_BYTES]))
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            _assert_files_match_reference(blobs, fmt, **kw)

    def test_a_time_of_2_53_microseconds_or_more_takes_the_line_path(self):
        # an offset of 0.123457 s: float64 division of the int64 microseconds
        # would give 32534300321.876545, strptime gives 32534300321.87654
        blob = b"1,3000-12-21 09:38:42,116.5,39.9\n"
        trace, _ = _assert_files_match_reference([blob], "beijing",
                                                 utc_offset_hours=3.429361111111111e-05)
        assert trace.t.tolist() == [32534300321.87654]

    def test_invalid_utf8_is_decoded_as_a_file_is(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_bytes(b"1,2008-02-02 15:36:08,116.5,39.9\n"
                         b"\xe9\x80,2008-02-02 15:36:09,116.5,39.9\n"
                         b"2,2008-02-02 15:36:08,116.5,39.\xf0\x9f\n"
                         b"\xff\xfe,2008-02-02 15:36:10,116.5,39.9")
        trace, report = parse_trace_file(str(path), "beijing", utc_offset_hours=8.0)
        with open(path, "rb") as fh:
            ref_points, ref = reference_parse_trace(fh, "beijing", utc_offset_hours=8.0)
        assert _bits(points_of(trace)) == _bits(ref_points)
        assert report.rejects == ref.rejects and len(report.rejects) == 1
        assert trace.taxi_ids == ("1", "�", "��")


class TestLocalTime:
    """``_local_us``, on ints and on int64 arrays, against ``datetime``: the
    same float once divided, and the same dates refused."""

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.integers(0, 9999), st.sampled_from([1900, 2000, 2004])),
           st.integers(0, 13), st.integers(0, 32), st.integers(0, 24), st.integers(0, 60),
           st.integers(0, 60), st.sampled_from([0.0, 8.0, 1 / 3, 5.5, 23.99, -23.99]))
    @example(1900, 2, 29, 0, 0, 0, 0.0)
    @example(2000, 2, 29, 0, 0, 0, 0.0)
    @example(2004, 2, 29, 23, 59, 59, -23.99)
    @example(1, 1, 1, 0, 0, 0, 23.99)
    @example(9999, 12, 31, 23, 59, 59, -23.99)
    def test_equals_datetime(self, year, month, day, hour, minute, second, offset):
        fields = (year, month, day, hour, minute, second)
        us, ok = ingest._local_us(*fields, offset)
        column_us, column_ok = ingest._local_us(*(np.array([v]) for v in fields), offset)
        assert column_ok.tolist() == [ok]
        try:
            local = datetime(*fields, tzinfo=timezone(timedelta(hours=offset)))
        except ValueError:
            assert not ok
            return
        assert ok and us / 10**6 == local.timestamp()
        assert column_us.tolist() == [us]


_LINE = b"1;5;39.9;116.5"  # 14 bytes, read in columns


class TestLineCount:
    """``_line_count`` alone sizes the columns, so it must count the lines
    the blocks hold, whatever the bytes and the block size."""

    @settings(max_examples=200, deadline=None)
    @given(blobs=st.lists(st.one_of(st.binary(max_size=40),
                                    st.lists(st.sampled_from([_LINE, b"\n", b"\r", b"\r\n",
                                                              b"\xff", b" "]),
                                             max_size=12).map(b"".join)),
                          min_size=1, max_size=3),
           block_bytes=st.sampled_from([1, 7, 20, ingest._BLOCK_BYTES]))
    @example(blobs=[b""], block_bytes=20)
    @example(blobs=[b"\n"], block_bytes=20)
    @example(blobs=[_LINE + b"\r" + _LINE + b"\r"], block_bytes=20)  # '\r' ends no line
    @example(blobs=[_LINE + b"\n" + _LINE], block_bytes=20)  # the last line has no '\n'
    @example(blobs=[_LINE + b"\n" + _LINE + b"\n"], block_bytes=20)  # line 2 crosses a block
    @example(blobs=[_LINE + b"\n" + b"x" * 30 + b"\n" + _LINE], block_bytes=20)  # a longer line
    @example(blobs=[b"", _LINE, b"\n" + _LINE], block_bytes=20)
    def test_line_count_is_the_lines_read(self, blobs, block_bytes):
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            _assert_files_match_reference(blobs, "canonical")


def _beijing_lines(taxi, n):
    """n clean Beijing lines of one taxi, a second apart."""
    return [f"{taxi},2008-02-02 {10 + k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d},"
            f"116.{k:05d},39.{k:05d}\n" for k in range(n)]


class TestFirstReadWins:
    """A repeated (taxi id, timestamp) keeps the line read first, whichever
    path read either copy."""

    @pytest.mark.parametrize("first,second", [
        (b" 1,2008-02-02 15:36:08,116.1,39.1", b"1,2008-02-02 15:36:08,116.2,39.2"),
        (b"1,2008-02-02 15:36:08,116.1,39.1", b" 1,2008-02-02 15:36:08,116.2,39.2"),
        (b"1,2008-02-02 15:36:08,116.1,39.1\r", b"1,2008-02-02 15:36:08,116.2,39.2"),
    ])
    @pytest.mark.parametrize("block_bytes", [1, 1 << 18])
    @pytest.mark.parametrize("split", [False, True])
    def test_the_first_copy_is_kept(self, first, second, block_bytes, split):
        blobs = [first + b"\n", second + b"\n"] if split else [first + b"\n" + second + b"\n"]
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            trace, report = _assert_files_match_reference(blobs, "beijing")
        assert trace.lat.tolist() == [39.1] and trace.lon.tolist() == [116.1]
        assert report.deduplicated == 1

    def test_a_repeat_in_a_later_block_and_file(self):
        a = "".join(_beijing_lines(1, 6000)).encode()
        b = "".join(line.replace("116.", "117.") for line in _beijing_lines(1, 6000)).encode()
        trace, report = _assert_files_match_reference([a, b], "beijing")
        assert report.deduplicated == 6000 and (trace.lon < 117.0).all()


class TestNoSilentFallback:
    """The byte check refuses only what it must: clean files never reach the
    line parser, and each dirty line reaches it once."""

    def _files(self, tmp_path, truncated=()):
        paths = []
        for taxi in (1, 2, 3):
            lines = _beijing_lines(taxi, 4000)  # about 180 KB: blocks span files
            for k in truncated:
                lines[k] = lines[k].rsplit(",", 1)[0] + "\n"
            path = tmp_path / f"{taxi}.txt"
            path.write_text("".join(lines))
            paths.append((str(path), "beijing", None))
        return paths

    def test_clean_beijing_files_never_reach_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(line, ctx):
            raise AssertionError(f"line parser called on {line!r}")

        monkeypatch.setitem(ingest._LINE_PARSERS, "beijing", refuse)
        trace, report = parse_trace_files(self._files(tmp_path), 8.0)
        assert (report.total_lines, report.accepted, report.rejected) == (12000, 12000, 0)

    def test_each_truncated_line_reaches_the_line_parser_once(self, tmp_path, monkeypatch):
        calls = []
        parse = ingest._LINE_PARSERS["beijing"]
        monkeypatch.setitem(ingest._LINE_PARSERS, "beijing",
                            lambda line, ctx: calls.append(line) or parse(line, ctx))
        truncated = (0, 17, 3999)
        trace, report = parse_trace_files(self._files(tmp_path, truncated), 8.0)
        assert len(calls) == 3 * len(truncated)
        assert (report.accepted, report.rejected) == (12000 - 9, 9)

    def test_a_written_trace_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        trace, _ = parse_trace_files(self._files(tmp_path), 8.0)
        path = tmp_path / "trace.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_canonical(trace, fh)
        monkeypatch.setitem(ingest._LINE_PARSERS, "canonical", None)
        again, report = parse_trace_file(str(path), "canonical")
        assert report.accepted == len(trace) and report.rejected == 0
        assert _bits(points_of(again)) == _bits(points_of(trace))


# ---------------------------------------------------- the byte-matrix writer

_EDGE_FLOATS = [
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,  # subnormals, least normal
    9.999999999999999e-05, 1e-4, np.nextafter(1e-4, 1.0), 1e-5,
    np.nextafter(1e15, 0.0), 1e15, 1e16,
    *(v for d in range(1, 10) for v in (2.0**52 / 10**d, np.nextafter(2.0**52 / 10**d, 0.0),
                                        np.nextafter(2.0**52 / 10**d, np.inf))),
    2.0**52 + 0.5, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 - 2,
    0.0, -0.0, float("nan"), float("inf"), 0.1 + 0.2, 116.40000, 39.9, 1202921600.0,
]
_EDGE_FLOATS += [-v for v in _EDGE_FLOATS]

_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(round, st.floats(-1e7, 1e7), st.integers(0, 9)),
    # 9 to 17 significant digits at any magnitude
    st.builds(lambda sign, m, e: float(f"{sign}{m}e{e}"), st.sampled_from("+-"),
              st.integers(10**8, 10**17 - 1), st.integers(-30, 20)),
)
_ints = st.one_of(st.sampled_from([0, -1, 9, 10, -10, 2**32, 2**63 - 1, -(2**63 - 1)]),
                  st.integers(-(2**63 - 1), 2**63 - 1))
_texts = st.one_of(st.sampled_from(["1", "a\0", "\0", " ", "x y", "é", "北京", "\ud800", ""]),
                   st.text(st.characters(exclude_categories=()), max_size=6))


def _written(write):
    """The text ``write`` writes to a StringIO."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


@st.composite
def _tables(draw):
    """(writer columns, reference columns): a text, an int and two float
    columns of the same rows."""
    n = draw(st.integers(0, 40))
    texts = tuple(draw(st.lists(_texts, min_size=1, max_size=5)))
    codes = np.array(draw(st.lists(st.integers(0, len(texts) - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    ints = np.array(draw(st.lists(_ints, min_size=n, max_size=n)), dtype=np.int64)
    floats = [np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=np.float64)
              for _ in range(2)]
    return ([(texts, codes), ints, *floats], [id_column(texts, codes), ints, *floats])


@st.composite
def _traces(draw):
    taxi_ids = tuple(sorted(set(draw(st.lists(_texts.filter(bool), min_size=1, max_size=4)))))
    counts = draw(st.lists(st.integers(1, 8), min_size=len(taxi_ids), max_size=len(taxi_ids)))
    n = sum(counts)
    t, lat, lon = (np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=np.float64)
                   for _ in range(3))
    occupied = draw(st.one_of(st.none(), st.lists(st.sampled_from([-1, 0, 1]), min_size=n,
                                                    max_size=n)))
    return Trace(taxi_ids, np.concatenate(([0], np.cumsum(counts))), t, lat, lon,
                 None if occupied is None else np.array(occupied, dtype=np.int8))


def _chunk_edge_column(n, seed):
    """n floats: the edge values and 5-decimal coordinates, the widest cell
    last, so the chunks differ in width."""
    rng = np.random.default_rng(seed)
    x = np.resize(np.concatenate((_EDGE_FLOATS, np.round(rng.uniform(-180, 180, 1000), 5))), n)
    if n:
        x[-1] = -2.2250738585072014e-308
    return x


class TestWriterMatchesReference:
    """The byte-matrix writer writes the text the per-cell writers wrote."""

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_rows(self, tables):
        columns, reference = tables
        assert (_written(lambda fh: write_rows(fh, columns))
                == _written(lambda fh: reference_write_rows(fh, reference)))

    @settings(max_examples=300, deadline=None)
    @given(_traces())
    def test_canonical(self, trace):
        assert (_written(lambda fh: write_canonical(trace, fh))
                == _written(lambda fh: reference_write_canonical(trace, fh)))

    @pytest.mark.parametrize("n", [0, 32767, 32768, 32769])
    def test_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        texts = ("1", "a\0", "é", "\ud800")
        codes = rng.integers(0, len(texts), n)
        ints = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        x = _chunk_edge_column(n, 0)
        reference = [id_column(texts, codes), ints, x]
        assert (_written(lambda fh: write_rows(fh, [(texts, codes), ints, x]))
                == _written(lambda fh: reference_write_rows(fh, reference)))
        offsets = np.array([0, n // 3, n]) if n else np.array([0])
        trace = Trace(("1", "2 b") if n else (), offsets, np.round(x * 1e6), x,
                      _chunk_edge_column(n, 1), rng.integers(-1, 2, n).astype(np.int8))
        assert (_written(lambda fh: write_canonical(trace, fh))
                == _written(lambda fh: reference_write_canonical(trace, fh)))

    @pytest.mark.parametrize("v", [2.0**53, -2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 1e300,
                                   -0.0, math.nan, math.inf, -math.inf])
    def test_fallback_values(self, v):
        """Values at and past the fallback's edges: alone, their text is
        format_number's; among short cells, the reference's."""
        alone = _written(lambda fh: write_rows(fh, [np.array([v])]))
        assert alone == ingest.format_number(v) + "\n"
        x = np.array([1.5, v, 3.0, 0.1 + 0.2, v])
        assert (_written(lambda fh: write_rows(fh, [x]))
                == _written(lambda fh: reference_write_rows(fh, [x])))

    def test_a_lone_surrogate_raises_where_a_file_refuses_it(self, tmp_path):
        with open(tmp_path / "rows.txt", "w", encoding="utf-8") as fh:
            with pytest.raises(UnicodeEncodeError):
                write_rows(fh, [(("\ud800",), np.zeros(1, np.int64))])


def _patch_fallback(monkeypatch, text):
    """Replace the text of the writer's per-cell fallback, which calls repr
    by the name the ingest module sees (a module global shadows the builtin)."""
    monkeypatch.setattr(ingest, "repr", text, raising=False)


class TestNoSilentFormatFallback:
    """Only cells that are no short decimal reach the per-cell fallback."""

    def test_a_trace_of_short_decimals_never_falls_back(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 40_000
        t = 1202000000.0 + np.sort(rng.integers(0, 600_000, n)).astype(np.float64)
        lat = np.round(rng.uniform(39.4, 41.1, n), 5)
        lon = np.round(rng.uniform(115.4, 117.5, n), 5) * rng.choice([-1.0, 1.0], n)
        trace = Trace(("1", "2"), np.array([0, n // 2, n]), t, lat, lon)
        expected = _written(lambda fh: reference_write_canonical(trace, fh))

        def refuse(x):
            raise AssertionError(f"fallback taken for {x!r}")

        _patch_fallback(monkeypatch, refuse)
        assert _written(lambda fh: write_canonical(trace, fh)) == expected

    @pytest.mark.parametrize("places", range(1, 10))
    def test_decimals_of_up_to_9_places_never_fall_back(self, places, monkeypatch):
        x = np.round(np.random.default_rng(places).uniform(-1e3, 1e3, 5000), places)
        x = x[np.abs(x) >= 1e-3]
        expected = _written(lambda fh: reference_write_rows(fh, [x]))
        _patch_fallback(monkeypatch, None)  # a call would raise
        assert _written(lambda fh: write_rows(fh, [x])) == expected

    def test_each_long_cell_falls_back_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        points = np.round(rng.uniform(39.4, 41.1, (3000, 3)), 5)
        centroids = np.array([ingest.left_sum(row) / 3 for row in points.tolist()])
        long = [float("nan"), float("inf"), 1e-5, 1e16, 2.0**53 + 2]
        x = np.concatenate((centroids, long, points[:, 0], np.arange(50.0)))
        k = sum(1 for v in x.tolist() if not (math.isfinite(v) and v == int(v) and abs(v) < 2**53)
                and not (1e-4 <= abs(v) < 1e15 and _places(v) <= 9))
        assert k >= len(long) + 1000  # most centroids are long decimals
        calls = []
        _patch_fallback(monkeypatch, lambda v: calls.append(v) or repr(v))
        assert (_written(lambda fh: write_rows(fh, [x]))
                == _written(lambda fh: reference_write_rows(fh, [x])))
        assert len(calls) == k


def _places(v):
    """The fraction digits of a float's shortest repr in positional form."""
    text = repr(abs(v))
    return len(text.split(".")[1]) if "e" not in text else 99
