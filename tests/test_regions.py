import io
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityregions.cli import main
from cityregions.fixtures import fixture_config
from cityregions.columns import write_rows
from cityregions.ingest import CityBounds
from cityregions.regions import (DEPARTURE, VISIT, OutOfBoundsError, build_quadtree,
                                 grid_visit_counts, load_events, load_tree, locate,
                                 trips_to_events, write_events, write_tree)

from .oracles import (GpsPoint, QuadNode, Trip, VisitEvent, brute_force_locate, event_table,
                      events_of, leaf_depths, reference_build_quadtree, reference_leaf_line,
                      reference_leaves, reference_load_events, reference_splits,
                      reference_trips_to_events, trip_table)

BOUNDS = CityBounds(0.0, 1.0, 0.0, 1.0)

# one coordinate of a trip endpoint: inside BOUNDS, on an edge or split line, or outside
COORD = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]),
                  st.sampled_from([-1.0, -1e-12, 1.0 + 1e-12, 2.0]))


def leaf_rows(leaves):
    """(region id, box, visit count) per row of a leaf table."""
    return [(region, CityBounds(*box), count) for region, *box, count in
            zip(*(column.tolist() for column in leaves.columns()))]


def depth_of_leaves(tree):
    """(visit count, depth) per leaf, the depths replayed from the split flags."""
    return list(zip(tree.leaves.visit_count.tolist(), leaf_depths(tree)))


def locate_one(tree, lat, lon):
    """The region ``locate`` gives one point."""
    (region,) = locate(tree, np.array([lat]), np.array([lon])).tolist()
    return region


def make_trip(depart_latlon, arrive_latlon, t0=0.0, t1=100.0, taxi="1"):
    return Trip(taxi,
                GpsPoint(taxi, t0, *depart_latlon),
                GpsPoint(taxi, t1, *arrive_latlon),
                0.0, t1 - t0)


def bits(x):
    return struct.pack("<d", x)


# one coordinate of a point the tree is built over: anywhere in BOUNDS, on a
# split line of the first three levels, or on the root's edges
POINT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([i / 8 for i in range(9)]))
# one coordinate of a query point: a POINT, or just outside BOUNDS
QUERY = st.one_of(POINT, st.sampled_from([-1e-12, -5e-324, 1.0 + 2**-52, 2.0]))


class TestBuildQuadtree:
    def test_empty_events_single_leaf(self):
        tree = build_quadtree([], BOUNDS)
        assert tree.split.tolist() == [False] and leaf_rows(tree.leaves) == [(0, BOUNDS, 0)]

    def test_uniform_grid_single_split(self):
        # 100 x 100 off-line grid: each quadrant holds exactly 2500 = 25%
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        tree = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        assert tree.split[0]
        assert len(tree.leaves.region) == 4
        assert tree.leaves.visit_count.tolist() == [2500] * 4

    def test_coincident_points_stop_at_depth_cap(self):
        pts = [(0.0625, 0.0625)] * 1000
        tree = build_quadtree(pts, BOUNDS, threshold_fraction=0.01, depth_cap=6)
        by_depth = depth_of_leaves(tree)
        deepest = max(d for _, d in by_depth)
        assert deepest == 6
        (capped,) = [count for count, d in by_depth if d == 6 and count > 0]
        assert capped == 1000
        # along the chain, the three siblings at each level are point-free leaves
        assert sum(1 for count, _ in by_depth if count == 0) == 6 * 3

    def test_parent_count_is_sum_of_children(self):
        rng = random.Random(0)
        pts = [(rng.random(), rng.random()) for _ in range(5000)]
        tree = build_quadtree(pts, BOUNDS, 0.05)
        lat, lon = np.array(pts).T
        flags = iter(tree.split.tolist())
        leaf_counts = iter(tree.leaves.visit_count.tolist())

        def check(south, north, west, east):
            """The points in a node's box (closed on the root's north and east
            edges), checked against its children's sum or its leaf count."""
            count = int(((south <= lat) & ((lat < north) | ((lat == north) & (north == 1.0)))
                         & (west <= lon) & ((lon < east) | ((lon == east) & (east == 1.0)))
                         ).sum())
            if next(flags):
                mlat, mlon = (south + north) / 2.0, (west + east) / 2.0
                assert count == sum(check(*box) for box in (
                    (mlat, north, west, mlon), (mlat, north, mlon, east),
                    (south, mlat, west, mlon), (south, mlat, mlon, east)))
            else:
                assert count == next(leaf_counts)
            return count

        assert check(0.0, 1.0, 0.0, 1.0) == 5000
        assert next(flags, None) is None and next(leaf_counts, None) is None

    def test_leaf_threshold_respected_off_cap(self):
        rng = random.Random(1)
        pts = [(rng.betavariate(2, 5), rng.betavariate(5, 2)) for _ in range(20000)]
        tree = build_quadtree(pts, BOUNDS, 0.01)
        limit = math.ceil(0.01 * 20000)
        for count, depth in depth_of_leaves(tree):
            if depth < 16:
                assert count <= limit

    def test_region_ids_consecutive_depth_first(self):
        rng = random.Random(2)
        pts = [(rng.random(), rng.random()) for _ in range(3000)]
        tree = build_quadtree(pts, BOUNDS, 0.1)
        ids = tree.leaves.region.tolist()
        assert ids == list(range(len(ids)))

    def test_child_id_order_is_nw_ne_sw_se(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        tree = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        by_id = {region: box for region, box, _ in leaf_rows(tree.leaves)}
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
        leaves = build_quadtree(pts, BOUNDS, 0.01).leaves
        area = ((leaves.lat_max - leaves.lat_min) * (leaves.lon_max - leaves.lon_min)).sum()
        assert area == pytest.approx(1.0, rel=1e-9)
        # pairwise non-overlap at small scale
        small = build_quadtree(pts[:500], BOUNDS, 0.2)
        boxes = [box for _, box, _ in leaf_rows(small.leaves)]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                disjoint = (a.lat_max <= b.lat_min or b.lat_max <= a.lat_min
                            or a.lon_max <= b.lon_min or b.lon_max <= a.lon_min)
                assert disjoint

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(POINT, POINT), max_size=200),
           st.sampled_from([0.01, 0.1, 0.3, 1.0]), st.integers(0, 8),
           st.tuples(POINT, POINT), st.integers(0, 40), st.lists(st.tuples(QUERY, QUERY)))
    @example([], 0.01, 16, (0.5, 0.5), 0, [(0.5, 1.0), (-1.0, 0.5)])
    @example([(1.0, 1.0), (0.5, 0.5)], 1.0, 16, (0.0, 0.0), 0, [(1.0, 1.0), (0.5, 0.0)])
    @example([(1.0, 0.5), (0.5, 1.0)], 0.01, 3, (0.375, 0.375), 40, [(0.375, 0.375)])
    def test_equals_the_recursive_builder(self, pts, fraction, depth_cap, spot, n_spot,
                                          queries):
        """Split flags, leaf ids, boxes bit for bit and counts, with points on
        split lines and edges, and coincident points that reach the cap; and
        locate's region for the points and drawn queries, outside the root too."""
        pts = pts + [spot] * n_spot
        tree = build_quadtree(pts, BOUNDS, fraction, depth_cap)
        ref = reference_build_quadtree(pts, BOUNDS, fraction, depth_cap)
        assert tree.bounds == BOUNDS
        assert tree.split.tolist() == reference_splits(ref)
        leaves = tree.leaves
        assert [leaves.region.dtype, leaves.visit_count.dtype] + [
            c.dtype for c in leaves.columns()[1:5]] == [np.int64] * 2 + [np.float64] * 4
        assert [(r, *map(bits, box), c) for r, *box, c in
                zip(*(c.tolist() for c in leaves.columns()))] == [
            (leaf.region_id, *map(bits, (leaf.bounds.lat_min, leaf.bounds.lat_max,
                                         leaf.bounds.lon_min, leaf.bounds.lon_max)),
             leaf.visit_count) for leaf in reference_leaves(ref)]
        queries = pts + queries
        lat, lon = np.array(queries, dtype=np.float64).reshape(-1, 2).T
        assert locate(tree, lat, lon).tolist() == [brute_force_locate(tree, *q) for q in queries]


class TestTooSmallToHalve:
    """A node whose midpoint is not strictly inside its box is a leaf,
    whatever its count and depth."""

    def test_coincident_points_below_the_smallest_float(self):
        tree = build_quadtree([(0.0, 0.0)] * 3, BOUNDS, 0.01, 2000)
        depths = leaf_depths(tree)
        # [0, 2**-1074] is the last box that halves: its midpoint rounds to 0
        assert max(depths) == 1074 and len(tree.leaves.region) == 3 * 1074 + 1
        (full,) = np.flatnonzero(tree.leaves.visit_count).tolist()
        assert tree.leaves.visit_count[full] == 3 and depths[full] == 1074
        assert leaf_rows(tree.leaves)[full][1] == CityBounds(0.0, 5e-324, 0.0, 5e-324)
        assert locate_one(tree, 0.0, 0.0) == full

    def test_locate_in_a_tree_1075_levels_deep(self):
        """Queries on the chain's split lines, next to them and outside the
        root go where the leaf scan puts them."""
        tree = build_quadtree([(0.0, 0.0)] * 3, BOUNDS, 0.01, 2000)
        assert max(leaf_depths(tree)) + 1 == 1075
        rng = random.Random(7)
        coords = ([0.0, -0.0, 5e-324, 1e-323, 1.5e-323, 1.0, -5e-324, 1.0 + 2**-52]
                  + [2.0 ** -k for k in range(0, 1075, 11)]
                  + [rng.random() * 2.0 ** -rng.randrange(1075) for _ in range(20)])
        queries = [q for c in coords for q in ((c, c), (c, 0.0), (0.0, c), (c, 1.0))]
        lat, lon = np.array(queries).T
        assert locate(tree, lat, lon).tolist() == [brute_force_locate(tree, *q) for q in queries]

    def test_a_parked_taxi_under_a_deep_cap(self, tmp_path, capsys):
        """60 identical fixes and one other, in the Beijing box: the regions
        stage ends the parked fixes' chain at a leaf too small to halve."""
        trace = tmp_path / "parked.txt"
        trace.write_text("".join(f"7,2008-02-02 10:{i:02d}:00,116.4,39.9\n" for i in range(60))
                         + "7,2008-02-02 11:30:00,116.41,39.91\n")
        cfg = fixture_config(str(tmp_path / "out"), str(trace))
        cfg.update(datasets=[{"path": str(trace), "format": "beijing"}],
                   bounds={"lat_min": 39.41, "lat_max": 41.08,
                           "lon_min": 115.37, "lon_max": 117.5},
                   quadtree={"threshold_fraction": 0.5, "depth_cap": 60,
                             "visit_source": "points"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        for stage in ("ingest", "trips", "regions"):
            assert main([stage, "--config", str(config)]) == 0, capsys.readouterr().err
        with open(tmp_path / "out" / "tree.txt", encoding="utf-8") as fh:
            leaves = leaf_rows(load_tree(fh))
        assert sum(count for *_, count in leaves) == 61
        (parked,) = [box for *_, box, count in leaves if count == 60]
        assert ((parked.lat_min + parked.lat_max) / 2.0 in (parked.lat_min, parked.lat_max)
                or (parked.lon_min + parked.lon_max) / 2.0 in (parked.lon_min, parked.lon_max))


class TestLocate:
    def test_root_only_tree_region_zero(self):
        root = build_quadtree([], BOUNDS)
        assert locate_one(root, 0.3, 0.7) == 0

    def test_split_longitude_goes_east(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        east = locate_one(root, 0.25, 0.5)   # exactly on the lon split
        west = locate_one(root, 0.25, 0.499)
        assert east != west
        leaf = [box for region, box, _ in leaf_rows(root.leaves) if region == east][0]
        assert leaf.lon_min == 0.5

    def test_split_latitude_goes_north(self):
        pts = [((i + 0.5) / 100, (j + 0.5) / 100)
               for i in range(100) for j in range(100)]
        root = build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
        north = locate_one(root, 0.5, 0.25)
        leaf = [box for region, box, _ in leaf_rows(root.leaves) if region == north][0]
        assert leaf.lat_min == 0.5

    def test_global_edges_closed(self):
        root = build_quadtree([(0.5, 0.5)], BOUNDS, threshold_fraction=1.0)
        assert root.split.tolist() == [False]
        for lat, lon in [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
            assert locate_one(root, lat, lon) == 0

    def test_outside_bounds_is_minus_one(self):
        root = build_quadtree([], BOUNDS)
        assert locate_one(root, 1.5, 0.5) == -1

    def test_agrees_with_brute_force_scan(self):
        rng = random.Random(5)
        pts = [(rng.betavariate(2, 2), rng.betavariate(3, 1)) for _ in range(20000)]
        root = build_quadtree(pts, BOUNDS, 0.02)
        probes = [(rng.random(), rng.random()) for _ in range(1000)]
        # include awkward points: corners, edges, split lines
        probes += [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.75), (1.0, 0.5)]
        for lat, lon in probes:
            assert locate_one(root, lat, lon) == brute_force_locate(root, lat, lon)

    def test_every_build_event_locatable(self):
        rng = random.Random(6)
        pts = [(rng.random(), rng.random()) for _ in range(2000)]
        root = build_quadtree(pts, BOUNDS, 0.05)
        lat, lon = np.array(pts).T
        assert (locate(root, lat, lon) >= 0).all()


def written(leaves):
    """A leaf table's lines as the program's row writer prints them."""
    buf = io.StringIO()
    write_rows(buf, leaves.columns())
    return buf.getvalue()


class TestTreeSerialization:
    def test_round_trip_preserves_leaves(self):
        rng = random.Random(7)
        pts = [(rng.random() ** 1.5, rng.random() ** 0.5) for _ in range(10000)]
        root = build_quadtree(pts, BOUNDS, 0.02)
        buf = io.StringIO()
        write_tree(root, buf)
        buf.seek(0)
        reloaded = load_tree(buf)
        assert written(reloaded) == buf.getvalue()
        assert leaf_rows(reloaded) == leaf_rows(root.leaves)
        assert len(reloaded.region) == len(leaf_depths(root))  # one row per unsplit node

    @pytest.mark.parametrize("text, message", [
        ("0;0;1;0;1\n", "expected 6 leaf fields, got 5"),
        ("\n\n", "empty tree file"),
        ("0;0;1;0;1;2\n1;0.5;0.5;0;1;0\n", r"^invalid bounds: .*lat_min=0\.5, lat_max=0\.5"),
        ("0;0;1;1;0;2\n", r"^invalid bounds: .*lon_min=1\.0, lon_max=0\.0"),
        ("0;0;1;0;1;2\n1;nan;1;0;1;0\n", r"^invalid bounds: .*lat_min=nan"),
    ])
    def test_malformed_file_raises(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_tree(io.StringIO(text))

    @pytest.mark.parametrize("line", ["9223372036854775808;0;1;0;1;5",
                                      "3;0;1;0;1;-9223372036854775809"],
                             ids=["region_id", "visit_count"])
    def test_ids_and_counts_fit_int64(self, line):
        text = "0;0;1;0;1;2\n" + line + "\n"
        with pytest.raises(OverflowError, match="^Python int too large to convert to C long$"):
            load_tree(io.StringIO(text, newline="\n"))

    def test_many_chunks(self):
        rng = random.Random(8)
        nodes = []
        for region_id in range(40_000):  # about 2 MB, so several reads of about 1 MB
            lat, lon = rng.uniform(-80, 80), rng.uniform(-170, 170)
            nodes.append(QuadNode(CityBounds(lat, lat + rng.random(), lon, lon + rng.random()),
                                  rng.randrange(10**12), region_id=region_id))
        text = "".join(reference_leaf_line(node) + "\n" for node in nodes)
        assert len(text) > 1 << 21
        reloaded = load_tree(io.StringIO(text, newline="\n"))
        assert leaf_rows(reloaded) == [(n.region_id, n.bounds, n.visit_count) for n in nodes]
        assert written(reloaded) == text
        with pytest.raises(ValueError, match="^expected 6 leaf fields, got 5$"):
            load_tree(io.StringIO(text + "0;0;1;0;1\n", newline="\n"))


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
        assert dep.region_id == locate_one(tree, 0.2, 0.2)
        assert vis.region_id == locate_one(tree, 0.8, 0.8)

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
    """The replayed preorder walk against the leaf scan, ``locate`` of one point
    at a time and the per-trip reference."""

    @staticmethod
    def probes(tree, data):
        """Points on split lines and leaf corners, on the root's edges, outside
        it, and anywhere inside."""
        lines = sorted({v for column in tree.leaves.columns()[1:5] for v in column.tolist()})
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
        got = locate(tree, lat, lon).tolist()
        for (a, b), region in zip(probes, got):
            assert region == locate_one(tree, a, b)
            if BOUNDS.contains(a, b):
                assert region == brute_force_locate(tree, a, b)
            else:
                assert region == -1
        trips = [make_trip(p, q, 2.0 * i, 2.0 * i + 1.0, taxi=str(i % 3))
                 for i, (p, q) in enumerate(zip(probes[0::2], probes[1::2]))]
        events, dropped = trips_to_events(trip_table(trips), tree)
        assert (events_of(events), dropped) == reference_trips_to_events(trips, tree)
        assert events.taxi_ids == tuple(events.present_taxi_ids())

    def test_empty_points(self):
        tree = self.four_leaf_tree()
        assert locate(tree, np.empty(0), np.empty(0)).tolist() == []

    @staticmethod
    def four_leaf_tree():
        pts = [((i + 0.5) / 100, (j + 0.5) / 100) for i in range(100) for j in range(100)]
        return build_quadtree(pts, BOUNDS, threshold_fraction=0.2501)
