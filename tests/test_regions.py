import io
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityregions.ingest import CityBounds, GpsPoint
from cityregions.regions import (DEPARTURE, VISIT, OutOfBoundsError, build_quadtree,
                                 grid_visit_counts, leaf_line, leaves, load_events, load_tree,
                                 locate, locate_all, trips_to_events, write_events, write_tree)
from cityregions.trajectory import Trip

from .oracles import (VisitEvent, brute_force_locate, event_table, events_of,
                      reference_load_events, reference_trips_to_events, trip_table)

BOUNDS = CityBounds(0.0, 1.0, 0.0, 1.0)

# one coordinate of a trip endpoint: inside BOUNDS, on an edge or split line, or outside
COORD = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]),
                  st.sampled_from([-1.0, -1e-12, 1.0 + 1e-12, 2.0]))


def depth_of_leaves(root):
    out = []

    def walk(node, depth):
        if node.is_leaf:
            out.append((node, depth))
        else:
            for c in node.children:
                walk(c, depth + 1)

    walk(root, 0)
    return out


def make_trip(depart_latlon, arrive_latlon, t0=0.0, t1=100.0, taxi="1"):
    return Trip(taxi,
                GpsPoint(taxi, t0, *depart_latlon),
                GpsPoint(taxi, t1, *arrive_latlon),
                0.0, t1 - t0)


class TestBuildQuadtree:
    def test_empty_events_single_leaf(self):
        root = build_quadtree([], BOUNDS)
        assert root.is_leaf and root.visit_count == 0 and root.region_id == 0

    def test_uniform_grid_single_split(self):
        # 100 x 100 off-line grid: each quadrant holds exactly 2500 = 25%
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        leafs = leaves(root)
        assert not root.is_leaf
        assert len(leafs) == 4
        assert all(l.visit_count == 2500 for l in leafs)

    def test_coincident_points_stop_at_depth_cap(self):
        pts = [(0.0625, 0.0625)] * 1000
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.01, depth_cap=6)
        by_depth = depth_of_leaves(root)
        deepest = max(d for _, d in by_depth)
        assert deepest == 6
        (capped,) = [l for l, d in by_depth if d == 6 and l.visit_count > 0]
        assert capped.visit_count == 1000
        # along the chain, the three siblings at each level are point-free leaves
        assert sum(1 for l, _ in by_depth if l.visit_count == 0) == 6 * 3

    def test_parent_count_is_sum_of_children(self):
        rng = random.Random(0)
        pts = [(rng.random(), rng.random()) for _ in range(5000)]
        root = build_quadtree(pts, BOUNDS, 0.05)

        def check(node):
            if not node.is_leaf:
                assert node.visit_count == sum(c.visit_count for c in node.children)
                for c in node.children:
                    check(c)

        check(root)
        assert root.visit_count == 5000

    def test_leaf_threshold_respected_off_cap(self):
        rng = random.Random(1)
        pts = [(rng.betavariate(2, 5), rng.betavariate(5, 2)) for _ in range(20000)]
        root = build_quadtree(pts, BOUNDS, 0.01)
        limit = math.ceil(0.01 * 20000)
        for leaf, depth in depth_of_leaves(root):
            if depth < 16:
                assert leaf.visit_count <= limit

    def test_region_ids_consecutive_depth_first(self):
        rng = random.Random(2)
        pts = [(rng.random(), rng.random()) for _ in range(3000)]
        root = build_quadtree(pts, BOUNDS, 0.1)
        ids = [l.region_id for l in leaves(root)]
        assert ids == list(range(len(ids)))

    def test_child_id_order_is_nw_ne_sw_se(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        by_id = {l.region_id: l.bounds for l in leaves(root)}
        assert (by_id[0].lat_min, by_id[0].lon_min) == (0.5, 0.0)  # NW
        assert (by_id[1].lat_min, by_id[1].lon_min) == (0.5, 0.5)  # NE
        assert (by_id[2].lat_min, by_id[2].lon_min) == (0.0, 0.0)  # SW
        assert (by_id[3].lat_min, by_id[3].lon_min) == (0.0, 0.5)  # SE

    def test_rebuild_is_identical(self):
        rng = random.Random(3)
        pts = [(rng.random(), rng.random()) for _ in range(4000)]
        a, b = (build_quadtree(pts, BOUNDS, 0.03) for _ in range(2))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_tree(a, buf_a)
        write_tree(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_event_outside_bounds_rejected(self):
        with pytest.raises(OutOfBoundsError):
            build_quadtree([(0.5, 0.5), (2.0, 0.5)], BOUNDS)

    def test_leaves_tile_root_exactly(self):
        rng = random.Random(4)
        pts = [(rng.random() ** 2, rng.random()) for _ in range(30000)]
        root = build_quadtree(pts, BOUNDS, 0.01)
        leafs = leaves(root)
        area = sum((l.bounds.lat_max - l.bounds.lat_min)
                   * (l.bounds.lon_max - l.bounds.lon_min) for l in leafs)
        assert area == pytest.approx(1.0, rel=1e-9)
        # pairwise non-overlap at small scale
        small = build_quadtree(pts[:500], BOUNDS, 0.2)
        boxes = [l.bounds for l in leaves(small)]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                disjoint = (a.lat_max <= b.lat_min or b.lat_max <= a.lat_min
                            or a.lon_max <= b.lon_min or b.lon_max <= a.lon_min)
                assert disjoint


class TestLocate:
    def test_root_only_tree_region_zero(self):
        root = build_quadtree([], BOUNDS)
        assert locate(root, 0.3, 0.7) == 0

    def test_split_longitude_goes_east(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        east = locate(root, 0.25, 0.5)   # exactly on the lon split
        west = locate(root, 0.25, 0.499)
        assert east != west
        leaf = [l for l in leaves(root) if l.region_id == east][0]
        assert leaf.bounds.lon_min == 0.5

    def test_split_latitude_goes_north(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        north = locate(root, 0.5, 0.25)
        leaf = [l for l in leaves(root) if l.region_id == north][0]
        assert leaf.bounds.lat_min == 0.5

    def test_global_edges_closed(self):
        root = build_quadtree([(0.5, 0.5)], BOUNDS, threshold_fraction=1.0)
        assert root.is_leaf
        for lat, lon in [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
            assert locate(root, lat, lon) == 0

    def test_outside_bounds_raises(self):
        root = build_quadtree([], BOUNDS)
        with pytest.raises(OutOfBoundsError):
            locate(root, 1.5, 0.5)

    def test_agrees_with_brute_force_scan(self):
        rng = random.Random(5)
        pts = [(rng.betavariate(2, 2), rng.betavariate(3, 1)) for _ in range(20000)]
        root = build_quadtree(pts, BOUNDS, 0.02)
        probes = [(rng.random(), rng.random()) for _ in range(1000)]
        # include awkward points: corners, edges, split lines
        probes += [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.75), (1.0, 0.5)]
        for lat, lon in probes:
            assert locate(root, lat, lon) == brute_force_locate(root, lat, lon)

    def test_every_build_event_locatable(self):
        rng = random.Random(6)
        pts = [(rng.random(), rng.random()) for _ in range(2000)]
        root = build_quadtree(pts, BOUNDS, 0.05)
        for lat, lon in pts[:500]:
            locate(root, lat, lon)  # must not raise


class TestTreeSerialization:
    def test_round_trip_preserves_leaves(self):
        rng = random.Random(7)
        pts = [(rng.random() ** 1.5, rng.random() ** 0.5) for _ in range(10000)]
        root = build_quadtree(pts, BOUNDS, 0.02)
        buf = io.StringIO()
        write_tree(root, buf)
        buf.seek(0)
        reloaded = load_tree(buf)
        assert "".join(leaf_line(leaf) + "\n" for leaf in reloaded) == buf.getvalue()
        assert ([(leaf.region_id, leaf.bounds, leaf.visit_count) for leaf in reloaded]
                == [(leaf.region_id, leaf.bounds, leaf.visit_count) for leaf in leaves(root)])
        assert all(leaf.is_leaf for leaf in reloaded)

    @pytest.mark.parametrize("text, message", [
        ("0;0;1;0;1\n", "expected 6 leaf fields, got 5"),
        ("\n\n", "empty tree file"),
    ])
    def test_malformed_file_raises(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_tree(io.StringIO(text))


class TestTripsToEvents:
    def build_four_leaf_tree(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        return build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)

    def test_departure_and_visit_per_trip(self):
        tree = self.build_four_leaf_tree()
        trip = make_trip((0.2, 0.2), (0.8, 0.8), 10.0, 50.0)
        events, dropped = trips_to_events(trip_table([trip]), tree)
        assert dropped == 0
        assert len(events) == 2
        dep, vis = events_of(events)
        assert dep.kind == DEPARTURE and dep.timestamp == 10.0
        assert vis.kind == VISIT and vis.timestamp == 50.0
        assert dep.region_id == locate(tree, 0.2, 0.2)
        assert vis.region_id == locate(tree, 0.8, 0.8)

    def test_same_region_trip_allowed(self):
        tree = self.build_four_leaf_tree()
        events, _ = trips_to_events(trip_table([make_trip((0.1, 0.1), (0.2, 0.2))]), tree)
        assert events.region[0] == events.region[1]

    def test_empty_trips(self):
        events, dropped = trips_to_events(trip_table([]), self.build_four_leaf_tree())
        assert (events_of(events), dropped) == ([], 0)

    def test_out_of_bounds_endpoint_dropped_and_counted(self):
        tree = self.build_four_leaf_tree()
        trips = [make_trip((0.5, 0.5), (2.0, 2.0)),   # arrive outside
                 make_trip((0.5, 0.5), (0.6, 0.6))]
        events, dropped = trips_to_events(trip_table(trips), tree)
        assert dropped == 1
        assert len(events) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.tuples(COORD, COORD), st.tuples(COORD, COORD)),
                    max_size=20))
    def test_every_endpoint_is_an_event_or_dropped(self, endpoints):
        tree = self.build_four_leaf_tree()
        trips = [make_trip(a, b, 2.0 * i, 2.0 * i + 1.0, taxi=str(i))
                 for i, (a, b) in enumerate(endpoints)]
        events, dropped = trips_to_events(trip_table(trips), tree)
        assert 2 * len(trips) == len(events) + dropped
        assert dropped == sum(not BOUNDS.contains(*p) for pair in endpoints for p in pair)
        position = {(e.taxi_id, e.kind): i for i, e in enumerate(events_of(events))}
        for trip in trips:
            depart = position.get((trip.taxi_id, DEPARTURE))
            visit = position.get((trip.taxi_id, VISIT))
            if depart is not None and visit is not None:
                assert depart < visit


class TestGridVisitCounts:
    def test_one_point_per_quadrant(self):
        pts = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
        grid = grid_visit_counts(pts, BOUNDS, 2, 2)
        assert grid.counts == (1, 1, 1, 1)

    def test_all_in_one_cell(self):
        pts = [(0.1, 0.1)] * 7
        grid = grid_visit_counts(pts, BOUNDS, 2, 2)
        assert grid.counts == (7, 0, 0, 0)

    def test_sum_equals_in_bounds_total(self):
        rng = random.Random(8)
        pts = [(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)) for _ in range(2000)]
        inside = sum(1 for lat, lon in pts if 0 <= lat <= 1 and 0 <= lon <= 1)
        grid = grid_visit_counts(pts, BOUNDS, 5, 7)
        assert sum(grid.counts) == inside

    def test_edge_tie_rule_matches_locate(self):
        # point on an interior grid line counts toward the north/east cell
        grid = grid_visit_counts([(0.5, 0.5)], BOUNDS, 2, 2)
        assert grid.counts == (0, 0, 0, 1)
        # global top edge closed: falls in the last row/col
        grid = grid_visit_counts([(1.0, 1.0)], BOUNDS, 2, 2)
        assert grid.counts == (0, 0, 0, 1)

    def test_row_major_orientation(self):
        # row index grows northward, column index grows eastward
        grid = grid_visit_counts([(0.1, 0.9)], BOUNDS, 2, 2)
        assert grid.counts == (0, 1, 0, 0)


def event_bits(events):
    """Events as comparable tuples, timestamps by their bits (NaN equals NaN)."""
    return [(e.taxi_id, e.region_id, struct.pack("<d", e.timestamp), e.kind) for e in events]


def raised(reader, text):
    try:
        reader(io.StringIO(text, newline="\n"))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


# fields of an events line, in the spellings int() and float() accept
TAXI_ID = st.text(st.sampled_from("ab9 \r\t_\x0b\x00\u00e9"), min_size=1, max_size=4)
REGION = st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                   st.sampled_from(["+3", " 7 ", "007", "1_0", "-0", "\u0663"]))
TIMESTAMP = st.one_of(st.floats(allow_nan=True).map(repr),
                      st.sampled_from(["1e9", "1.5E+3", " 2.5 ", "+3", "-0.0", "nan", "-inf",
                                       "1_000.5", "1202223599.9999995"]))
KIND = st.sampled_from([VISIT, DEPARTURE])
LINE = st.one_of(
    st.tuples(TAXI_ID, REGION, TIMESTAMP, KIND).map(";".join),
    st.sampled_from(["", "  ", "\r", "\t\r"]))
PAD = st.sampled_from(["", " ", "\t", "\r", " \r"])


class TestLoadEvents:
    """The column reader against the per-line reader it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(PAD, LINE, PAD).map("".join), max_size=30))
    def test_equals_per_line_reader(self, lines):
        text = "\n".join(lines)
        expected = reference_load_events(io.StringIO(text, newline="\n"))
        table = load_events(io.StringIO(text, newline="\n"))
        assert event_bits(events_of(table)) == event_bits(expected)
        assert list(table.taxi_ids) == sorted(set(table.taxi_ids))
        assert (table.region.dtype, table.t.dtype, table.visit.dtype) == (
            np.int64, np.float64, bool)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(TAXI_ID, REGION, TIMESTAMP, KIND).map(";".join), max_size=10),
           st.sampled_from(["a;1;2", "a;1;2;visit;", "a;1;2;visit;x", ";;;;", "a",
                            "a;1;2;Visit", "a;1;2;", "a;x;2;visit", "a;1;2.2.2;visit",
                            "a;;2;visit"]),
           st.data())
    def test_bad_line_raises_as_per_line_reader(self, good, bad, data):
        lines = list(good)
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        text = "\n".join(lines) + "\n"
        expected = raised(reference_load_events, text)
        assert expected is not None
        assert raised(load_events, text) == expected

    def test_many_chunks(self):
        rng = random.Random(5)
        events = [VisitEvent(f"t{rng.randrange(500)}", rng.randrange(64),
                             1.2e9 + rng.random() * 1e6, rng.choice([VISIT, DEPARTURE]))
                  for _ in range(80_000)]  # a few MB, so several reads of about 1 MB
        buf = io.StringIO(newline="\n")
        write_events(event_table(events), buf)
        text = buf.getvalue()
        table = load_events(io.StringIO(text, newline="\n"))
        assert event_bits(events_of(table)) == event_bits(events)
        bad = text + "x;1;2;visit;\n"
        assert raised(load_events, bad) == raised(reference_load_events, bad)

    def test_table_selects_rows(self):
        events = [VisitEvent("b", 3, 10.0, VISIT), VisitEvent("a", 1, 5.5, DEPARTURE),
                  VisitEvent("b", 2, 7.0, VISIT)]
        table = event_table(events)
        assert table.taxi_ids == ("a", "b")
        assert len(table) == 3 and events_of(table) == events
        assert events_of(table.select(slice(1, None))) == events[1:]
        assert events_of(table.select(table.visit)) == [events[0], events[2]]
        assert table.select(table.visit).present_taxi_ids() == ["b"]
        assert table.present_taxi_codes() == [0, 1]


class TestLocateAll:
    """The level-by-level walk against the leaf scan, scalar locate and the
    per-trip reference."""

    @staticmethod
    def probes(tree, data):
        """Points on split lines and leaf corners, on the root's edges, outside
        it, and anywhere inside."""
        lines = sorted({v for leaf in leaves(tree) for v in (
            leaf.bounds.lat_min, leaf.bounds.lat_max, leaf.bounds.lon_min, leaf.bounds.lon_max)})
        coord = st.one_of(st.sampled_from(lines), st.floats(0.0, 1.0),
                          st.sampled_from([-0.5, -1e-300, math.nextafter(1.0, 2.0), 1.5]))
        return data.draw(st.lists(st.tuples(coord, coord), max_size=40))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=300),
           st.sampled_from([0.01, 0.1, 0.3]), st.integers(0, 5), st.data())
    def test_equals_leaf_scan_and_scalar_locate(self, pts, fraction, depth_cap, data):
        coincident = [(0.3, 0.7)] * data.draw(st.integers(0, 50))  # splits down to the cap
        tree = build_quadtree(pts + coincident, BOUNDS, fraction, depth_cap)
        probes = self.probes(tree, data)
        lat = np.array([p[0] for p in probes], dtype=np.float64)
        lon = np.array([p[1] for p in probes], dtype=np.float64)
        got = locate_all(tree, lat, lon).tolist()
        for (a, b), region in zip(probes, got):
            if BOUNDS.contains(a, b):
                assert region == brute_force_locate(tree, a, b) == locate(tree, a, b)
            else:
                assert region == -1
                with pytest.raises(OutOfBoundsError):
                    locate(tree, a, b)
        trips = [make_trip(p, q, 2.0 * i, 2.0 * i + 1.0, taxi=str(i % 3))
                 for i, (p, q) in enumerate(zip(probes[0::2], probes[1::2]))]
        events, dropped = trips_to_events(trip_table(trips), tree)
        assert (events_of(events), dropped) == reference_trips_to_events(trips, tree)
        assert events.taxi_ids == tuple(events.present_taxi_ids())

    def test_empty_points(self):
        tree = self.four_leaf_tree()
        assert locate_all(tree, np.empty(0), np.empty(0)).tolist() == []

    @staticmethod
    def four_leaf_tree():
        pts = [((i + 0.5) / 100, (j + 0.5) / 100) for i in range(100) for j in range(100)]
        return build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
