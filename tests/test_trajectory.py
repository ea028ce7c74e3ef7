import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityregions import trajectory
from cityregions.ingest import Trace, left_sum
from cityregions.trajectory import (EARTH_RADIUS_M, TRIP_COLUMNS, StopTable, TripTable,
                                    detect_stops, extract_trips, great_circle, load_stay_times,
                                    load_trips, segment, stops_and_trips, write_stops,
                                    write_trips)

from .oracles import (GpsPoint, Trajectory, Trip, brute_force_stops, distance,
                      reference_detect_stops, reference_extract_trips, reference_segment,
                      stops_of, trace_of, trip_table, trips_of)

GAP = 1800.0


def pt(t, lat=39.95, lon=116.40, taxi="1"):
    return GpsPoint(taxi, float(t), lat, lon)


def traj(points):
    return Trajectory(points[0].taxi_id, tuple(points))


def trajectories(points, brk):
    """One taxi's points cut at the breaks ``segment`` marks, as Trajectories."""
    cuts = [0, *(np.flatnonzero(brk) + 1).tolist(), len(points)]
    return [traj(points[a:b]) for a, b in zip(cuts, cuts[1:])]


def scan(points, d_threshold=50.0, t_threshold=360.0, delta_t=GAP):
    """The stops and trips ``stops_and_trips`` finds in the points, as rows."""
    stops, trips = stops_and_trips(trace_of(points), delta_t, d_threshold, t_threshold)
    return stops_of(stops), trips_of(trips)


def steps(points, delta_t=GAP):
    """The trace of the points, ``segment``'s breaks and ``detect_stops``'
    first and last rows, for the step functions one at a time."""
    trace = trace_of(points)
    brk = segment(trace, delta_t)
    first, last, _, _ = detect_stops(trace, brk, 50.0, 360.0)
    return trace, brk, first, last


METERS_PER_DEG_LAT = 111194.93  # 6371000 * pi / 180


def offset_m(base, dy_m, dx_m=0.0):
    """Point moved dy_m metres north (and dx_m east at the equator scale)."""
    return base + dy_m / METERS_PER_DEG_LAT, dx_m / METERS_PER_DEG_LAT


class TestGreatCircle:
    def test_identical_points_zero(self):
        assert great_circle(39.95, 116.40, 39.95, 116.40) == 0.0

    def test_one_degree_of_longitude_at_equator(self):
        d = great_circle(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111195, abs=5)

    @given(st.tuples(st.floats(-89, 89), st.floats(-179, 179),
                     st.floats(-89, 89), st.floats(-179, 179)))
    def test_symmetry(self, coords):
        lat1, lon1, lat2, lon2 = coords
        assert great_circle(lat1, lon1, lat2, lon2) == pytest.approx(
            great_circle(lat2, lon2, lat1, lon1), rel=1e-12, abs=1e-9)

    def test_zero_iff_same_coordinates(self):
        assert great_circle(39.9, 116.4, 39.9, 116.40001) > 0


class TestSegment:
    def test_small_gaps_one_trajectory(self):
        brk = segment(trace_of([pt(i * 10) for i in range(20)]), 1800)
        assert brk.tolist() == [False] * 19

    def test_gap_of_exactly_threshold_splits(self):
        assert segment(trace_of([pt(0), pt(1800)]), 1800).tolist() == [True]

    def test_gap_just_under_threshold_does_not_split(self):
        assert segment(trace_of([pt(0), pt(1799.999)]), 1800).tolist() == [False]

    def test_hand_traced_gap_pattern(self):
        # gaps {60, 2000, 60, 2000} -> sizes {2, 2, 1}
        points = [pt(t) for t in (0, 60, 2060, 2120, 4120)]
        out = trajectories(points, segment(trace_of(points), 1800))
        assert [len(t) for t in out] == [2, 2, 1]

    def test_empty_input(self):
        assert segment(trace_of([]), 1800).tolist() == []

    def test_partition_preserves_points(self):
        points = [pt(t) for t in (0, 100, 3000, 3100, 9000)]
        out = trajectories(points, segment(trace_of(points), 1800))
        assert out == reference_segment(points, 1800)
        assert [p for t in out for p in t.points] == points

    def test_the_step_into_the_next_taxi_breaks(self):
        points = [pt(0, taxi="1"), pt(10, taxi="1"), pt(20, taxi="2"), pt(30, taxi="2")]
        assert segment(trace_of(points), 1800).tolist() == [False, True, False]


class TestDetectStops:
    def test_stationary_then_jump(self):
        # parked 600 s at one coordinate, then 200 m away
        lat2, dlon = offset_m(39.95, 200.0)
        points = [pt(t) for t in range(0, 601, 100)] + [pt(700, lat2)]
        _, _, first, last = steps(points)
        assert (first.tolist(), last.tolist()) == ([0], [6])
        (s,), _ = scan(points)
        assert s.dwell_s == 600.0
        assert (s.dwell_start, s.dwell_end) == (points[0].timestamp, points[6].timestamp)

    def test_always_moving_no_stops(self):
        # 100 m strides every 60 s
        points = []
        lat = 39.95
        for i in range(20):
            points.append(pt(i * 60, lat))
            lat, _ = offset_m(lat, 100.0)
        assert scan(points)[0] == []

    def test_dwell_exactly_threshold_is_not_a_stop(self):
        points = [pt(t) for t in range(0, 361, 120)]
        assert scan(points)[0] == []

    def test_two_plateaus_match_oracle(self):
        far, _ = offset_m(39.95, 500.0)
        points = ([pt(t) for t in range(0, 401, 100)]           # plateau one
                  + [pt(500, far)]                              # away
                  + [pt(t, far) for t in range(600, 1001, 100)])  # plateau two
        stops, _ = scan(points)
        assert len(stops) == 2
        assert stops == brute_force_stops(traj(points), 50.0, 360.0)

    def test_trailing_stop_without_departure_counts(self):
        points = [pt(t) for t in range(0, 601, 100)]
        stops, _ = scan(points)
        assert len(stops) == 1 and stops[0].dwell_end == 600.0

    def test_centroid_is_member_mean(self):
        lat_b, _ = offset_m(39.95, 30.0)
        points = [pt(0), pt(200, lat_b), pt(400, 39.95), pt(600, lat_b)]
        stops, _ = scan(points)
        assert len(stops) == 1
        assert stops[0].centroid_lat == pytest.approx((39.95 * 2 + lat_b * 2) / 4)

    def test_all_dwells_at_least_threshold(self):
        rng = random.Random(5)
        for _ in range(20):
            for s in scan(random_trace(rng))[0]:
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
    return points


class TestStopOracleEquivalence:
    def test_matches_brute_force_on_random_traces(self):
        rng = random.Random(1234)
        for trial in range(60):
            points = random_trace(rng)
            d = rng.choice([30.0, 50.0, 80.0])
            dur = rng.choice([180.0, 360.0, 600.0])
            assert scan(points, d, dur)[0] == brute_force_stops(traj(points), d, dur), \
                f"divergence on trial {trial}"


class TestExtractTrips:
    def build_two_stop_points(self):
        far, _ = offset_m(39.95, 5000.0)
        return ([pt(t) for t in range(0, 401, 100)]
                + [pt(1000, offset_m(39.95, 2500.0)[0])]
                + [pt(t, far) for t in range(1900, 2301, 100)])

    def test_two_stops_one_trip(self):
        points = self.build_two_stop_points()
        trace, brk, first, last = steps(points)
        assert (first.tolist(), last.tolist()) == ([0, 6], [4, 10])
        trips = trips_of(extract_trips(trace, brk, first, last))
        assert len(trips) == 1
        trip = trips[0]
        assert trip.depart == points[4]   # the first stop's last point
        assert trip.arrive == points[6]   # the second stop's first point
        assert trip.duration_s == 1900.0 - 400.0
        assert trip.length_m == pytest.approx(5000.0, rel=1e-3)

    def test_single_stop_no_trips(self):
        points = [pt(t) for t in range(0, 601, 100)]
        assert scan(points)[1] == []

    def test_three_stops_two_trips_in_time_order(self):
        a, _ = offset_m(39.95, 3000.0)
        b, _ = offset_m(39.95, 6000.0)
        points = ([pt(t) for t in range(0, 401, 100)]
                  + [pt(t, a) for t in range(1000, 1401, 100)]
                  + [pt(t, b) for t in range(2000, 2401, 100)])
        _, trips = scan(points)
        assert len(trips) == 2
        assert trips[0].arrive.timestamp <= trips[1].depart.timestamp
        assert all(tr.duration_s > 0 for tr in trips)

    def test_no_stop_inside_trip_span(self):
        rng = random.Random(77)
        for _ in range(20):
            stops, trips = scan(random_trace(rng))
            for trip in trips:
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
        trace, brk, first, last = steps(day_one + day_two, 1800.0)
        trips = trips_of(extract_trips(trace, brk, first, last))
        assert len(trajectories(day_one + day_two, brk)) == 2
        assert len(first) == 4
        assert len(trips) == 2
        boundary = 1600.0
        for trip in trips:
            spans = trip.depart.timestamp <= boundary < trip.arrive.timestamp
            assert not spans


def _bits(*values):
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _stop_bits(s):
    return _bits(s.taxi_id, s.dwell_start, s.dwell_end, s.centroid_lat, s.centroid_lon)


def _trip_bits(t):
    return _bits(t.taxi_id, t.depart.timestamp, t.depart.lat, t.depart.lon, t.arrive.timestamp,
                 t.arrive.lat, t.arrive.lon, t.length_m, t.duration_s)


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
    ids = sorted({p.taxi_id for p in points})
    return trace_of(points), {tid: [p for p in points if p.taxi_id == tid] for tid in ids}


def _near(d):
    """d, one ulp either side, and the edges of the scan's numpy guard band
    (a distance of d * (1 + 1e-9) is where numpy starts to decide)."""
    edge = d * (1.0 + 1e-9)
    return [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), edge,
            math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), d / (1.0 + 1e-9)]


def reference_scan(points, d_threshold, t_threshold):
    """The per-object scan's stops and trips over every taxi of the points."""
    want_stops, want_trips = [], []
    for taxi in sorted({p.taxi_id for p in points}):
        for one in reference_segment([p for p in points if p.taxi_id == taxi], GAP):
            found = reference_detect_stops(one, d_threshold, t_threshold)
            want_stops += found
            want_trips += reference_extract_trips(one, found)
    return want_stops, want_trips


def fixes(taxi, t0, n, lat, lon, wobble_m=0.0, seed=0):
    """n fixes 60 s apart around (lat, lon), each up to wobble_m degrees-of-
    latitude metres off in lat and in lon."""
    rng = random.Random(seed)
    off = wobble_m / METERS_PER_DEG_LAT
    return [GpsPoint(taxi, t0 + 60.0 * k, lat + rng.uniform(-off, off),
                     lon + rng.uniform(-off, off)) for k in range(n)]


def long_dwells():
    """Three taxis parked for hours between short drives."""
    points = []
    for taxi, n in (("a", 600), ("b", 420), ("c", 7)):
        for leg in range(3):
            t0, lat = 1.2e9 + 60.0 * (n + 5) * leg, 39.9 + 0.01 * leg
            points += fixes(taxi, t0, n, lat, 116.4, 15.0, leg)
            points += fixes(taxi, t0 + 60.0 * n, 5, lat + 0.005, 116.4, 300.0, leg)
    return points, 50.0


def stop_then_candidate():
    """Taxi a's stops follow each other at once, so the point after a stop
    anchors the next one; taxi b's stops each end before a point far from
    both stops."""
    points = []
    for k in range(4):
        lat, _ = offset_m(39.95, 200.0 * k)
        points += fixes("a", 1000.0 * k, 8, lat, 116.4)
        points += fixes("b", 1000.0 * k, 8, lat, 116.4)
        points += fixes("b", 1000.0 * k + 480.0, 1, offset_m(lat, 100.0)[0], 116.4)
    return points, 50.0


def anchor_inside_a_failed_window():
    """A failed window whose next anchor's window must be probed from that
    anchor on: its third point is 80 m from it, though 40 m from the first
    anchor, and the point that closed the first window is 20 m from it."""
    north = [0.0, 40.0, 30.0, -40.0] + [60.0] * 9
    points = [GpsPoint(taxi, 60.0 * k, offset_m(39.95, m)[0], 116.4)
              for taxi in "ab" for k, m in enumerate(north)]
    return points + fixes("c", 0.0, 20, 39.95, 116.4), 50.0


def three_earth_radii():
    """A threshold numpy decides nothing at, its margin being infinite: only a
    point near the anchor's antipode ends a window."""
    points = []
    for k in range(4):
        sign = 1.0 if k % 2 == 0 else -1.0
        points += fixes("a", 600.0 * k, 10, 10.0 * sign, 20.0 if sign > 0 else -160.0, 1e3, k)
    points += fixes("b", 0.0, 12, 39.9, 116.4, 5e6, 4)
    return points, 3.0 * EARTH_RADIUS_M


class TestColumnScan:
    """stops_and_trips against the per-object scan and the brute-force oracle."""

    @settings(max_examples=300, deadline=None)
    @given(taxi_traces(), st.data())
    def test_equals_per_object_scan_and_oracle(self, traced, data):
        self.check_against_the_oracles(*traced, data)

    def check_against_the_oracles(self, trace, by_taxi, data):
        # a threshold at (or an ulp or a guard band from) a distance the scan
        # measures, or one of 3 Earth radii or more, where the margin is infinite
        pts = data.draw(st.sampled_from(list(by_taxi.values())))
        i = data.draw(st.integers(0, len(pts) - 1))
        j = data.draw(st.integers(i, min(i + 4, len(pts) - 1)))
        d = max(distance(pts[i], pts[j]), 1.0)
        d_threshold = data.draw(st.sampled_from(
            _near(d) + [50.0, 3.0 * EARTH_RADIUS_M, 3.5 * EARTH_RADIUS_M]))
        t_threshold = data.draw(st.sampled_from([200.0, 360.0, 900.0]))

        stops, trips = stops_and_trips(trace, GAP, d_threshold, t_threshold)
        brk = segment(trace, GAP)
        want_stops, want_trips = [], []
        for k, (taxi, points) in enumerate(by_taxi.items()):
            a, b = trace.offsets[k:k + 2].tolist()
            assert trace.taxi_ids[k] == taxi
            if b < len(trace):
                assert brk[b - 1]  # the step into the next taxi
            found_trajectories = reference_segment(points, GAP)
            assert trajectories(points, brk[a:b - 1]) == found_trajectories
            for one in found_trajectories:
                found = reference_detect_stops(one, d_threshold, t_threshold)
                assert ([_stop_bits(s) for s in brute_force_stops(one, d_threshold, t_threshold)]
                        == [_stop_bits(s) for s in found])
                want_stops += found
                want_trips += reference_extract_trips(one, found)
        assert [_stop_bits(s) for s in stops_of(stops)] == [_stop_bits(s) for s in want_stops]
        assert [_trip_bits(t) for t in trips_of(trips)] == [_trip_bits(t) for t in want_trips]
        assert trips.taxi_ids == tuple(sorted({t.taxi_id for t in want_trips}))

    @pytest.mark.parametrize("case", [long_dwells, stop_then_candidate,
                                      anchor_inside_a_failed_window, three_earth_radii])
    def test_fixed_cases_equal_the_per_object_scan(self, case):
        points, d_threshold = case()
        stops, trips = stops_and_trips(trace_of(points), GAP, d_threshold, 360.0)
        want_stops, want_trips = reference_scan(points, d_threshold, 360.0)
        assert len(want_stops) >= 3
        assert [_stop_bits(s) for s in stops_of(stops)] == [_stop_bits(s) for s in want_stops]
        assert [_trip_bits(t) for t in trips_of(trips)] == [_trip_bits(t) for t in want_trips]

    @pytest.mark.parametrize("numpy_distance", [0.0, 1e30], ids=["zero", "1e30"])
    @pytest.mark.parametrize("d_threshold", [3.0 * EARTH_RADIUS_M, 3.5 * EARTH_RADIUS_M],
                             ids=["3R", "3.5R"])
    def test_numpy_decides_no_step_from_three_earth_radii_on(self, monkeypatch, numpy_distance,
                                                              d_threshold):
        # whatever numpy measures, great_circle decides every step, so a scan
        # that let a numpy distance decide one would end or extend a window
        # the per-object scan does not (3.5 Earth radii lie beyond pi R, where
        # every window runs to its trajectory's end)
        monkeypatch.setattr(trajectory, "_haversine",
                            lambda lat1, *_: np.full(np.shape(lat1), numpy_distance))
        points, _ = three_earth_radii()
        stops, trips = stops_and_trips(trace_of(points), GAP, d_threshold, 360.0)
        want_stops, want_trips = reference_scan(points, d_threshold, 360.0)
        assert [_stop_bits(s) for s in stops_of(stops)] == [_stop_bits(s) for s in want_stops]
        assert [_trip_bits(t) for t in trips_of(trips)] == [_trip_bits(t) for t in want_trips]

    def test_numpy_rounds_leave_only_the_trip_lengths_to_great_circle(self, monkeypatch):
        # every anchor-to-point distance is under 30 m or over 80 m, clear of
        # the guard band around 50 m, so numpy decides every step of the scan
        calls = []

        def counted(*args):
            calls.append(args)
            return great_circle(*args)

        monkeypatch.setattr(trajectory, "great_circle", counted)
        points = []
        for taxi in "abc":
            for leg in range(4):
                lat, _ = offset_m(39.9, 400.0 * leg)
                points += fixes(taxi, 1200.0 * leg, 10, lat, 116.4, 10.0, leg)
                points += [GpsPoint(taxi, 1200.0 * leg + 600.0, offset_m(lat, 300.0)[0], 116.4)]
        stops, trips = stops_and_trips(trace_of(points))
        assert (len(stops), len(trips)) == (12, 9)
        assert len(calls) == len(trips)

    @pytest.mark.parametrize("which", range(7))
    def test_first_step_at_the_threshold(self, which):
        # the anchor's first step decides whether the dwell starts at the anchor
        points = [pt(0.0, 39.95, 116.40)] + [pt(60.0 * k, 39.9502, 116.4001) for k in range(1, 9)]
        d_threshold = _near(distance(points[0], points[1]))[which]
        stops, _ = stops_and_trips(trace_of(points), GAP, d_threshold, 360.0)
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
        (stop,), _ = scan(points)
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

    def test_many_chunks(self):
        rng = np.random.default_rng(5)
        n = 20_000  # about 2 MB, so several reads of about 1 MB
        table = TripTable(tuple(f"t{k:03d}" for k in range(300)), rng.integers(0, 300, n),
                          *(rng.uniform(-1e9, 1e9, n) for _ in TRIP_COLUMNS))
        buf = io.StringIO(newline="\n")
        write_trips(table, buf)
        text = buf.getvalue()
        assert len(text) > 1 << 21
        loaded = load_trips(io.StringIO(text, newline="\n"))
        assert loaded.taxi_ids == table.taxi_ids
        for name in ("taxi",) + TRIP_COLUMNS:
            mine, theirs = getattr(loaded, name), getattr(table, name)
            assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), name
        with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
            load_trips(io.StringIO(text + "a;1;2;3;4;5;6;7;x\n", newline="\n"))


class TestLoadStayTimes:
    @pytest.mark.parametrize("line, message", [
        ("a;10", "expected 5 stop fields, got 2"),
        ("a;10;70.5;39.9;116.4;9", "expected 5 stop fields, got 6"),
    ])
    def test_line_of_another_width_is_refused(self, line, message):
        text = "a;1;2;3;4\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_stay_times(io.StringIO(text, newline="\n"))

    @pytest.mark.parametrize("line, message", [
        ("a;10;70.5;x;116.4", "could not convert string to float: 'x'"),
        ("a;10;70.5;39.9;", "could not convert string to float: ''"),
    ], ids=["centroid_lat", "empty_centroid_lon"])
    def test_centroids_are_checked(self, line, message):
        text = "a;1;2;3;4\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_stay_times(io.StringIO(text, newline="\n"))

    def test_many_chunks(self):
        rng = np.random.default_rng(6)
        n = 30_000  # about 2 MB, so several reads of about 1 MB
        start = rng.uniform(1.2e9, 1.3e9, n)
        stops = StopTable(("a", "b", "c"), rng.integers(0, 3, n), start,
                          start + rng.exponential(600.0, n), rng.uniform(39, 41, n),
                          rng.uniform(116, 117, n))
        buf = io.StringIO(newline="\n")
        write_stops(stops, buf)
        text = buf.getvalue()
        assert len(text) > 1 << 21
        stays = load_stay_times(io.StringIO(text, newline="\n"))
        expected = stops.dwell_end - stops.dwell_start
        assert (stays.dtype, stays.tobytes()) == (expected.dtype, expected.tobytes())
        with pytest.raises(ValueError, match="^expected 5 stop fields, got 2$"):
            load_stay_times(io.StringIO(text + "a;1\n", newline="\n"))
