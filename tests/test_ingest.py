import io
import itertools
import os
import tempfile
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityregions.ingest import (CityBounds, GpsPoint, GridCounts, Trace, clip_to_bounds,
                                load_grid_counts, parse_trace, parse_trace_file,
                                parse_trace_files, write_canonical, write_grid_counts)

from .oracles import points_of, reference_parse_trace, trace_of

BEIJING = CityBounds(39.41, 41.08, 115.37, 117.5)


def parse_lines(text, fmt, **kw):
    """The parsed fixes as GpsPoints, and the report."""
    trace, report = parse_trace(io.StringIO(text), fmt, **kw)
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


def _assert_same_as_reference(make_source, fmt, **kw):
    trace, report = parse_trace(make_source(), fmt, **kw)
    ref_points, ref = reference_parse_trace(make_source(), fmt, **kw)
    assert _bits(points_of(trace)) == _bits(ref_points)
    assert (report.total_lines, report.accepted, report.deduplicated, report.rejects) == (
        ref.total_lines, ref.accepted, ref.deduplicated, ref.rejects)
    assert report.accepted + report.deduplicated + report.rejected == report.total_lines


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
        _assert_same_as_reference(lambda: io.StringIO(text), fmt, **kw)
        _assert_same_as_reference(lambda: io.BytesIO(text.encode("utf-8")), fmt, **kw)

    @pytest.mark.parametrize("fmt", sorted(_FIELDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes(self, fmt, data):
        lines = data.draw(st.lists(st.one_of(_FIELDS[fmt]().map(str.encode),
                                             st.binary(max_size=12)), max_size=12))
        blob = b"\n".join(lines)
        _assert_same_as_reference(lambda: io.BytesIO(blob), fmt, **_ADAPTER_KW[fmt])

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
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"{k}.txt") for k in range(len(files))]
            for path, lines in zip(paths, files):
                text = "".join(s + "\n" for s in lines)
                with open(path, "wb") as fh:  # the last line may end without a newline
                    fh.write((text[:-1] if data.draw(st.booleans()) else text).encode())
            trace, report = parse_trace_files([(path, "canonical", None) for path in paths])
            handles = [open(path, "rb") for path in paths]
            try:
                ref_points, ref = reference_parse_trace(itertools.chain(*handles), "canonical")
            finally:
                for fh in handles:
                    fh.close()
        assert _bits(points_of(trace)) == _bits(ref_points)
        assert (report.total_lines, report.accepted, report.deduplicated, report.rejects) == (
            ref.total_lines, ref.accepted, ref.deduplicated, ref.rejects)

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
        trace, _ = parse_trace(io.StringIO(from_points.getvalue()), "canonical")
        assert np.array_equal(trace.lat, [0.0, 40.0, 39.5])
