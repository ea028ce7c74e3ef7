import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityregions.ingest import GpsPoint, Trace, left_sum
from cityregions.trajectory import (Trajectory, Trip, detect_stops, extract_trips,
                                    great_circle, haversine_m, load_stay_times, load_trips,
                                    segment, stops_and_trips, write_trips)

from .oracles import (brute_force_stops, reference_detect_stops, reference_extract_trips,
                      reference_segment, trip_table, trips_of)


def pt(t, lat=39.95, lon=116.40, taxi="1"):
    return GpsPoint(taxi, float(t), lat, lon)


def traj(points):
    return Trajectory(points[0].taxi_id, tuple(points))


METERS_PER_DEG_LAT = 111194.93  # 6371000 * pi / 180


def offset_m(base, dy_m, dx_m=0.0):
    """Point moved dy_m metres north (and dx_m east at the equator scale)."""
    return base + dy_m / METERS_PER_DEG_LAT, dx_m / METERS_PER_DEG_LAT


class TestGreatCircle:
    def test_identical_points_zero(self):
        assert great_circle(pt(0), pt(1)) == 0.0

    def test_one_degree_of_longitude_at_equator(self):
        d = haversine_m(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111195, abs=5)

    @given(st.tuples(st.floats(-89, 89), st.floats(-179, 179),
                     st.floats(-89, 89), st.floats(-179, 179)))
    def test_symmetry(self, coords):
        lat1, lon1, lat2, lon2 = coords
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            haversine_m(lat2, lon2, lat1, lon1), rel=1e-12, abs=1e-9)

    def test_zero_iff_same_coordinates(self):
        assert haversine_m(39.9, 116.4, 39.9, 116.40001) > 0


class TestSegment:
    def test_small_gaps_one_trajectory(self):
        points = [pt(i * 10) for i in range(20)]
        out = segment(points, 1800)
        assert len(out) == 1 and len(out[0]) == 20

    def test_gap_of_exactly_threshold_splits(self):
        points = [pt(0), pt(1800)]
        assert len(segment(points, 1800)) == 2

    def test_gap_just_under_threshold_does_not_split(self):
        points = [pt(0), pt(1799.999)]
        assert len(segment(points, 1800)) == 1

    def test_hand_traced_gap_pattern(self):
        # gaps {60, 2000, 60, 2000} -> sizes {2, 2, 1}
        times = [0, 60, 2060, 2120, 4120]
        out = segment([pt(t) for t in times], 1800)
        assert [len(t) for t in out] == [2, 2, 1]

    def test_empty_input(self):
        assert segment([], 1800) == []

    def test_partition_preserves_points(self):
        points = [pt(t) for t in (0, 100, 3000, 3100, 9000)]
        out = segment(points, 1800)
        flat = [p for t in out for p in t.points]
        assert flat == points

    def test_mixed_taxis_rejected(self):
        with pytest.raises(ValueError, match="mixed taxi ids"):
            segment([pt(0, taxi="1"), pt(10, taxi="2")], 1800)

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            segment([pt(10), pt(10)], 1800)


class TestDetectStops:
    def test_stationary_then_jump(self):
        # parked 600 s at one coordinate, then 200 m away
        lat2, dlon = offset_m(39.95, 200.0)
        points = [pt(t) for t in range(0, 601, 100)] + [pt(700, lat2)]
        stops = detect_stops(traj(points), 50.0, 360.0)
        assert len(stops) == 1
        s = stops[0]
        assert s.dwell_s == 600.0
        assert s.anchor == points[0]
        assert s.last_point == points[6]

    def test_always_moving_no_stops(self):
        # 100 m strides every 60 s
        points = []
        lat = 39.95
        for i in range(20):
            points.append(pt(i * 60, lat))
            lat, _ = offset_m(lat, 100.0)
        assert detect_stops(traj(points), 50.0, 360.0) == []

    def test_dwell_exactly_threshold_is_not_a_stop(self):
        points = [pt(t) for t in range(0, 361, 120)]
        assert detect_stops(traj(points), 50.0, 360.0) == []

    def test_two_plateaus_match_oracle(self):
        far, _ = offset_m(39.95, 500.0)
        points = ([pt(t) for t in range(0, 401, 100)]           # plateau one
                  + [pt(500, far)]                              # away
                  + [pt(t, far) for t in range(600, 1001, 100)])  # plateau two
        t = traj(points)
        stops = detect_stops(t, 50.0, 360.0)
        assert len(stops) == 2
        assert stops == brute_force_stops(t, 50.0, 360.0)

    def test_trailing_stop_without_departure_counts(self):
        points = [pt(t) for t in range(0, 601, 100)]
        stops = detect_stops(traj(points), 50.0, 360.0)
        assert len(stops) == 1 and stops[0].dwell_end == 600.0

    def test_centroid_is_member_mean(self):
        lat_b, _ = offset_m(39.95, 30.0)
        points = [pt(0), pt(200, lat_b), pt(400, 39.95), pt(600, lat_b)]
        stops = detect_stops(traj(points), 50.0, 360.0)
        assert len(stops) == 1
        assert stops[0].centroid_lat == pytest.approx((39.95 * 2 + lat_b * 2) / 4)

    def test_all_dwells_at_least_threshold(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_trace(rng)
            for s in detect_stops(t, 50.0, 360.0):
                assert s.dwell_s > 360.0


def random_trace(rng, max_points=200):
    """Alternating dwell/move segments so the scan has real windows to find."""
    points = []
    t = 0.0
    lat, lon = 39.95, 116.40
    taxi = "7"
    while len(points) < rng.randrange(5, max_points):
        if rng.random() < 0.5:  # dwell: wobble under ~25 m
            for _ in range(rng.randrange(1, 8)):
                points.append(GpsPoint(taxi, t,
                                       lat + rng.uniform(-1e-4, 1e-4),
                                       lon + rng.uniform(-1e-4, 1e-4)))
                t += rng.uniform(30, 240)
        else:  # move decisively
            for _ in range(rng.randrange(1, 5)):
                lat += rng.uniform(60, 400) / METERS_PER_DEG_LAT * rng.choice([-1, 1])
                lon += rng.uniform(60, 400) / METERS_PER_DEG_LAT * rng.choice([-1, 1])
                points.append(GpsPoint(taxi, t, lat, lon))
                t += rng.uniform(30, 240)
    return Trajectory(taxi, tuple(points))


class TestStopOracleEquivalence:
    def test_matches_brute_force_on_random_traces(self):
        rng = random.Random(1234)
        for trial in range(60):
            t = random_trace(rng)
            d = rng.choice([30.0, 50.0, 80.0])
            dur = rng.choice([180.0, 360.0, 600.0])
            assert detect_stops(t, d, dur) == brute_force_stops(t, d, dur), \
                f"divergence on trial {trial}"


class TestExtractTrips:
    def make_stops(self, t):
        return detect_stops(t, 50.0, 360.0)

    def build_two_stop_trajectory(self):
        far, _ = offset_m(39.95, 5000.0)
        points = ([pt(t) for t in range(0, 401, 100)]
                  + [pt(1000, offset_m(39.95, 2500.0)[0])]
                  + [pt(t, far) for t in range(1900, 2301, 100)])
        return traj(points)

    def test_two_stops_one_trip(self):
        t = self.build_two_stop_trajectory()
        stops = self.make_stops(t)
        assert len(stops) == 2
        trips = extract_trips(t, stops)
        assert len(trips) == 1
        trip = trips[0]
        assert trip.depart == stops[0].last_point
        assert trip.arrive == stops[1].anchor
        assert trip.duration_s == 1900.0 - 400.0
        assert trip.length_m == pytest.approx(5000.0, rel=1e-3)

    def test_single_stop_no_trips(self):
        points = [pt(t) for t in range(0, 601, 100)]
        t = traj(points)
        assert extract_trips(t, self.make_stops(t)) == []

    def test_three_stops_two_trips_in_time_order(self):
        a, _ = offset_m(39.95, 3000.0)
        b, _ = offset_m(39.95, 6000.0)
        points = ([pt(t) for t in range(0, 401, 100)]
                  + [pt(t, a) for t in range(1000, 1401, 100)]
                  + [pt(t, b) for t in range(2000, 2401, 100)])
        t = traj(points)
        trips = extract_trips(t, self.make_stops(t))
        assert len(trips) == 2
        assert trips[0].arrive.timestamp <= trips[1].depart.timestamp
        assert all(tr.duration_s > 0 for tr in trips)

    def test_no_stop_inside_trip_span(self):
        rng = random.Random(77)
        for _ in range(20):
            t = random_trace(rng)
            stops = self.make_stops(t)
            for trip in extract_trips(t, stops):
                for s in stops:
                    inside = (trip.depart.timestamp < s.dwell_start
                              and s.dwell_end < trip.arrive.timestamp)
                    assert not inside

    def test_trips_never_span_trajectory_boundaries(self):
        # two stop-pairs separated by a 2 h silence: the gap must not
        # produce a bridging trip
        far, _ = offset_m(39.95, 4000.0)
        day_one = ([pt(t) for t in range(0, 401, 100)]
                   + [pt(t, far) for t in range(1200, 1601, 100)])
        day_two = ([pt(t) for t in range(9000, 9401, 100)]
                   + [pt(t, far) for t in range(10200, 10601, 100)])
        trajectories = segment(day_one + day_two, 1800.0)
        stops_by_trajectory = [detect_stops(t, 50.0, 360.0) for t in trajectories]
        stops = [s for found in stops_by_trajectory for s in found]
        trips = [trip for t, found in zip(trajectories, stops_by_trajectory)
                 for trip in extract_trips(t, found)]
        assert len(trajectories) == 2
        assert len(stops) == 4
        assert len(trips) == 2
        boundary = 1600.0
        for trip in trips:
            spans = trip.depart.timestamp <= boundary < trip.arrive.timestamp
            assert not spans


def _bits(*values):
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _stop_bits(s):
    return _bits(s.taxi_id, s.anchor, s.last_point, s.dwell_start, s.dwell_end,
                 s.centroid_lat, s.centroid_lon)


def _trip_bits(t):
    return _bits(t.taxi_id, t.depart.timestamp, t.depart.lat, t.depart.lon, t.arrive.timestamp,
                 t.arrive.lat, t.arrive.lon, t.length_m, t.duration_s)


GAP = 1800.0
# seconds to the next fix: short, just under, exactly at and over the segment gap
STEP_S = st.sampled_from([1.0, 45.0, 120.0, 400.0, GAP - 1e-6, GAP, GAP + 1.0])
# metres moved north/east per fix: still, wobble, around the stop distance, far
STEP_M = st.sampled_from([0.0, 3.0, 20.0, 35.0, 49.0, 50.0, 51.0, 70.0, 400.0])


@st.composite
def taxi_traces(draw):
    """Up to three taxis of up to 14 fixes each, as one Trace and per-taxi points."""
    points = []
    for taxi in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        t = draw(st.floats(1.2e9, 1.2e9 + 1e5))
        lat, lon = 39.9 + draw(st.floats(-0.05, 0.05)), 116.4
        for _ in range(draw(st.integers(1, 14))):
            points.append(GpsPoint(taxi, t, lat, lon))
            t += draw(STEP_S)
            lat += draw(STEP_M) / METERS_PER_DEG_LAT * draw(st.sampled_from([-1, 1]))
            lon += draw(STEP_M) / METERS_PER_DEG_LAT * draw(st.sampled_from([-1, 1]))
    points.sort(key=lambda p: (p.taxi_id, p.timestamp))
    ids = sorted({p.taxi_id for p in points})
    counts = [sum(p.taxi_id == tid for p in points) for tid in ids]
    trace = Trace(tuple(ids), np.concatenate(([0], np.cumsum(counts))), *_point_arrays(points))
    return trace, {tid: [p for p in points if p.taxi_id == tid] for tid in ids}


def _point_arrays(points):
    return (np.array([getattr(p, name) for p in points]) for name in ("timestamp", "lat", "lon"))


def _near(d):
    """d, one ulp either side, and the edges of the scan's numpy guard band
    (a distance of d * (1 + 1e-9) is where numpy starts to decide)."""
    edge = d * (1.0 + 1e-9)
    return [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), edge,
            math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), d / (1.0 + 1e-9)]


class TestColumnScan:
    """stops_and_trips against the per-object scan and the brute-force oracle."""

    @settings(max_examples=300, deadline=None)
    @given(taxi_traces(), st.data())
    def test_equals_per_object_scan_and_oracle(self, traced, data):
        trace, by_taxi = traced
        # a threshold at (or an ulp or a guard band from) a distance the scan measures
        pts = data.draw(st.sampled_from(list(by_taxi.values())))
        i = data.draw(st.integers(0, len(pts) - 1))
        j = data.draw(st.integers(i, min(i + 4, len(pts) - 1)))
        d = max(great_circle(pts[i], pts[j]), 1.0)
        d_threshold = data.draw(st.sampled_from(_near(d) + [50.0]))
        t_threshold = data.draw(st.sampled_from([200.0, 360.0, 900.0]))

        stops, trips = stops_and_trips(trace, GAP, d_threshold, t_threshold)
        want_stops, want_trips = [], []
        for taxi, points in by_taxi.items():
            trajectories = segment(points, GAP)
            assert trajectories == reference_segment(points, GAP)
            got_stops, got_trips = [], []
            ref_stops, ref_trips = [], []
            for traj in trajectories:
                found = reference_detect_stops(traj, d_threshold, t_threshold)
                assert ([_stop_bits(s) for s in brute_force_stops(traj, d_threshold, t_threshold)]
                        == [_stop_bits(s) for s in found])
                got = detect_stops(traj, d_threshold, t_threshold)
                assert [_stop_bits(s) for s in got] == [_stop_bits(s) for s in found]
                assert ([_trip_bits(t) for t in extract_trips(traj, found)]
                        == [_trip_bits(t) for t in reference_extract_trips(traj, found)])
                got_stops += got
                got_trips += extract_trips(traj, got)
                ref_stops += found
                ref_trips += reference_extract_trips(traj, found)
            assert [_stop_bits(s) for s in got_stops] == [_stop_bits(s) for s in ref_stops]
            assert [_trip_bits(t) for t in got_trips] == [_trip_bits(t) for t in ref_trips]
            want_stops += ref_stops
            want_trips += ref_trips
        assert [_bits(stops.taxi_ids[k], *row) for k, *row in zip(
            stops.taxi.tolist(), stops.dwell_start.tolist(), stops.dwell_end.tolist(),
            stops.centroid_lat.tolist(), stops.centroid_lon.tolist())] == [
            _bits(s.taxi_id, s.dwell_start, s.dwell_end, s.centroid_lat, s.centroid_lon)
            for s in want_stops]
        assert [_trip_bits(t) for t in trips_of(trips)] == [_trip_bits(t) for t in want_trips]
        assert trips.taxi_ids == tuple(sorted({t.taxi_id for t in want_trips}))

    @pytest.mark.parametrize("which", range(7))
    def test_first_step_at_the_threshold(self, which):
        # the anchor's first step decides whether the dwell starts at the anchor
        points = [pt(0.0, 39.95, 116.40)] + [pt(60.0 * k, 39.9502, 116.4001) for k in range(1, 9)]
        d_threshold = _near(great_circle(points[0], points[1]))[which]
        trace = Trace(("1",), np.array([0, 9]), *_point_arrays(points))
        stops, _ = stops_and_trips(trace, GAP, d_threshold, 360.0)
        (want,) = reference_detect_stops(traj(points), d_threshold, 360.0)
        assert _bits(*stops.dwell_start.tolist(), *stops.centroid_lat.tolist()) == _bits(
            want.dwell_start, want.centroid_lat)

    def test_empty_and_one_fix_traces(self):
        for n in (0, 1):
            trace = Trace(("a",) * n, np.array([0, n][:n + 1]), *(np.ones(n) for _ in range(3)))
            stops, trips = stops_and_trips(trace)
            assert len(stops) == 0 and len(trips) == 0

    def test_thresholds_are_checked(self):
        trace = Trace(("a",), np.array([0, 1]), np.ones(1), np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="delta_t must be positive"):
            stops_and_trips(trace, 0.0)
        with pytest.raises(ValueError, match="thresholds must be positive"):
            stops_and_trips(trace, GAP, -1.0)

    def test_centroid_sums_left_to_right(self):
        # sum() is compensated from Python 3.12 on and would give 1.0 here
        assert left_sum([0.1] * 10) == 0.9999999999999999
        points = [GpsPoint("1", 60.0 * i, 0.1, 0.1) for i in range(10)]
        (stop,) = detect_stops(traj(points), 50.0, 360.0)
        assert stop.centroid_lat == stop.centroid_lon == 0.9999999999999999 / 10


class TestTripTable:
    def test_round_trips_a_file(self):
        trips = [Trip("b", GpsPoint("b", 1.0, 39.9, 116.4), GpsPoint("b", 9.5, 39.91, 116.41),
                      1234.5, 8.5),
                 Trip("a", GpsPoint("a", 2.0, 39.0, 116.0), GpsPoint("a", 3.0, 40.0, 117.0),
                      1e5, 1.0)]
        table = trip_table(trips)
        assert table.taxi_ids == ("a", "b") and table.taxi.tolist() == [1, 0]
        assert len(table) == 2 and trips_of(table) == trips
        buf = io.StringIO(newline="\n")
        write_trips(table, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "b;1;39.9;116.4;9.5;39.91;116.41;1234.5;8.5"
        loaded = load_trips(io.StringIO(text, newline="\n"))
        assert trips_of(loaded) == trips and loaded.taxi_ids == table.taxi_ids
        out = io.StringIO(newline="\n")
        write_trips(loaded, out)
        assert out.getvalue() == text

    @pytest.mark.parametrize("line, message", [
        ("a;1;2;3;4;5;6;7", "expected 9 trip fields, got 8"),
        ("a;1;2;3;4;5;6;7;8;9", "expected 9 trip fields, got 10"),
        ("a;1;2;x;4;5;6;7;8", "could not convert string to float: 'x'"),
    ])
    def test_malformed_line_raises_as_the_per_line_reader(self, line, message):
        text = "a;1;2;3;4;5;6;7;8\n\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_trips(io.StringIO(text, newline="\n"))


class TestLoadStayTimes:
    @pytest.mark.parametrize("line, message", [
        ("a;10", "expected 5 stop fields, got 2"),
        ("a;10;70.5;39.9;116.4;9", "expected 5 stop fields, got 6"),
    ])
    def test_line_of_another_width_is_refused(self, line, message):
        text = "a;1;2;3;4\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_stay_times(io.StringIO(text, newline="\n"))
