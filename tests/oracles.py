"""Independent brute-force oracles the implementation is tested against.

These deliberately re-derive results from first principles (exhaustive
enumeration, linear scans) and share no code path with the package
implementations they check.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from itertools import combinations

import numpy as np

from cityregions.columns import TaxiCodes, format_number
from cityregions.ingest import CityBounds, ParseReport, Trace
from cityregions.dtn import Encounters, SelectionError, SimOutcome
from cityregions.functions import LABELS, WINDOW_LABEL, FrequentItemset, local_hour_key
from cityregions.regions import DEPARTURE, VISIT, EventTable, OutOfBoundsError
from cityregions.trajectory import TRIP_COLUMNS, StopTable, TripTable, great_circle


# Rows: the program passes traces, stops, trips and events as column tables
# only; the oracles and the hand-written cases speak in one object per row,
# and these helpers turn one form into the other.

@dataclass(frozen=True, slots=True)
class GpsPoint:
    """One timestamped position of one taxi (timestamp = UTC epoch seconds)."""

    taxi_id: str
    timestamp: float
    lat: float
    lon: float
    occupied: bool | None = None


@dataclass(frozen=True)
class Trajectory:
    """One taxi's time-sorted points between two breaks."""

    taxi_id: str
    points: tuple[GpsPoint, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class StopPoint:
    """A dwell, as one row of a StopTable."""

    taxi_id: str
    dwell_start: float
    dwell_end: float
    centroid_lat: float
    centroid_lon: float

    @property
    def dwell_s(self) -> float:
        return self.dwell_end - self.dwell_start


@dataclass(frozen=True, slots=True)
class Trip:
    """One passenger carry, as one row of a TripTable."""

    taxi_id: str
    depart: GpsPoint
    arrive: GpsPoint
    length_m: float
    duration_s: float


def distance(p: GpsPoint, q: GpsPoint) -> float:
    """The program's scalar great-circle distance between two points: the
    stop rule compares it with the threshold, so an oracle must use it too."""
    return great_circle(p.lat, p.lon, q.lat, q.lon)

@dataclass(frozen=True, slots=True)
class VisitEvent:
    """A taxi entering (visit) or leaving (departure) a region."""

    taxi_id: str
    region_id: int
    timestamp: float
    kind: str  # VISIT or DEPARTURE

    def __post_init__(self) -> None:
        if self.kind not in (VISIT, DEPARTURE):
            raise ValueError(f"kind must be {VISIT!r} or {DEPARTURE!r}")


@dataclass(frozen=True, slots=True)
class EncounterEvent:
    """Two taxis in one region within one time bin."""

    taxi_a: str
    taxi_b: str
    region_id: int
    bin_start: float


def _coded(ids):
    """(ascending ids, each row's code into them)."""
    codes = TaxiCodes()
    return codes.ranked(codes.encode(ids))


def trace_of(points) -> Trace:
    """GpsPoints as a Trace: grouped by ascending taxi id, each taxi's
    points in the order given."""
    taxi_ids, taxi = _coded([p.taxi_id for p in points])
    order = np.argsort(taxi, kind="stable")
    points = [points[i] for i in order.tolist()]
    occupied = np.array([-1 if p.occupied is None else int(p.occupied) for p in points],
                        dtype=np.int8)
    return Trace(taxi_ids, np.searchsorted(taxi[order], np.arange(len(taxi_ids) + 1)),
                 *(np.array([getattr(p, name) for p in points], dtype=np.float64)
                   for name in ("timestamp", "lat", "lon")),
                 occupied if (occupied >= 0).any() else None)


def row_taxi_ids(trace: Trace) -> list[str]:
    """The taxi id of every row of a Trace."""
    counts = np.diff(trace.offsets).tolist()
    return [tid for tid, n in zip(trace.taxi_ids, counts) for _ in range(n)]


def row_occupied(trace: Trace) -> list[bool | None]:
    """The occupancy flag of every row of a Trace, None where it has none."""
    if trace.occupied is None:
        return [None] * len(trace)
    return [None if o < 0 else o == 1 for o in trace.occupied.tolist()]


def points_of(trace: Trace) -> list[GpsPoint]:
    """A Trace's rows as GpsPoints."""
    return [GpsPoint(*row) for row in zip(row_taxi_ids(trace), trace.t.tolist(),
                                          trace.lat.tolist(), trace.lon.tolist(),
                                          row_occupied(trace))]


def stops_of(table: StopTable) -> list[StopPoint]:
    """A StopTable's rows as StopPoints."""
    return [StopPoint(table.taxi_ids[code], *row) for code, *row in zip(
        table.taxi.tolist(), table.dwell_start.tolist(), table.dwell_end.tolist(),
        table.centroid_lat.tolist(), table.centroid_lon.tolist())]


def trip_table(trips) -> TripTable:
    """Trips as a TripTable, in the order given."""
    rows = [(t.depart.timestamp, t.depart.lat, t.depart.lon, t.arrive.timestamp,
             t.arrive.lat, t.arrive.lon, t.length_m, t.duration_s) for t in trips]
    return TripTable(*_coded([t.taxi_id for t in trips]),
                     *np.array(rows, dtype=np.float64).reshape(-1, len(TRIP_COLUMNS)).T.copy())


def trips_of(table: TripTable) -> list[Trip]:
    """A TripTable's rows as Trips, whose points carry no occupancy flag."""
    out = []
    for code, dt, dla, dlo, at, ala, alo, length, duration in zip(
            table.taxi.tolist(), *(c.tolist() for c in table.columns())):
        tid = table.taxi_ids[code]
        out.append(Trip(tid, GpsPoint(tid, dt, dla, dlo), GpsPoint(tid, at, ala, alo),
                        length, duration))
    return out


def event_table(events) -> EventTable:
    """VisitEvents as an EventTable, in the order given."""
    return EventTable(*_coded([e.taxi_id for e in events]),
                      np.array([e.region_id for e in events], dtype=np.int64),
                      np.array([e.timestamp for e in events], dtype=np.float64),
                      np.array([e.kind == VISIT for e in events], dtype=bool))


def events_of(table: EventTable) -> list[VisitEvent]:
    """An EventTable's rows as VisitEvents."""
    return [VisitEvent(table.taxi_ids[code], region, t, VISIT if visit else DEPARTURE)
            for code, region, t, visit in zip(table.taxi.tolist(), table.region.tolist(),
                                              table.t.tolist(), table.visit.tolist())]


def encounter_table(encs) -> Encounters:
    """EncounterEvents as an Encounters table, in the order given."""
    taxi_ids, codes = _coded([e.taxi_a for e in encs] + [e.taxi_b for e in encs])
    return Encounters(taxi_ids, codes[:len(encs)], codes[len(encs):],
                      np.array([e.region_id for e in encs], dtype=np.int64),
                      np.array([e.bin_start for e in encs], dtype=np.float64))


def encounters_of(table: Encounters) -> list[EncounterEvent]:
    """An Encounters table's rows as EncounterEvents."""
    ids = table.taxi_ids
    return [EncounterEvent(ids[a], ids[b], region, t) for a, b, region, t in zip(
        table.a.tolist(), table.b.tolist(), table.region.tolist(), table.bin_start.tolist())]


def left_fold(values):
    """Floats added in list order, one rounding per addition."""
    total = 0.0
    for v in values:
        total += v
    return total


def brute_force_stops(traj: Trajectory, d_threshold: float,
                      t_threshold: float) -> list[StopPoint]:
    """Test every (start, end) index window against the dwell rule, then pick
    non-overlapping windows greedily from the earliest start."""
    pts = traj.points
    n = len(pts)
    qualifying: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i, n):
            window_ok = all(distance(pts[i], pts[m]) <= d_threshold
                            for m in range(i, j + 1))
            terminator_ok = (j + 1 == n
                             or distance(pts[i], pts[j + 1]) > d_threshold)
            duration_ok = pts[j].timestamp - pts[i].timestamp > t_threshold
            if window_ok and terminator_ok and duration_ok:
                qualifying.append((i, j))
    chosen: list[tuple[int, int]] = []
    cursor = 0
    for i, j in sorted(qualifying):
        if i >= cursor:
            chosen.append((i, j))
            cursor = j + 1
    out = []
    for i, j in chosen:
        members = pts[i:j + 1]
        out.append(StopPoint(
            taxi_id=traj.taxi_id,
            dwell_start=pts[i].timestamp,
            dwell_end=pts[j].timestamp,
            centroid_lat=left_fold(p.lat for p in members) / len(members),
            centroid_lon=left_fold(p.lon for p in members) / len(members)))
    return out


# The per-object scan the column scan replaced, kept as written (with the
# centroid sum pinned to a left fold) as the reference for the trips layer.

def reference_segment(points, delta_t):
    """One taxi's time-sorted points split at every gap >= delta_t."""
    if not points:
        return []
    out, current = [], [points[0]]
    for prev, p in zip(points, points[1:]):
        if p.timestamp - prev.timestamp >= delta_t:
            out.append(Trajectory(points[0].taxi_id, tuple(current)))
            current = []
        current.append(p)
    out.append(Trajectory(points[0].taxi_id, tuple(current)))
    return out


def reference_detect_stops(traj, d_threshold, t_threshold):
    pts = traj.points
    stops = []
    i = 0
    while i < len(pts):
        j = i + 1
        while j < len(pts) and distance(pts[i], pts[j]) <= d_threshold:
            j += 1
        if pts[j - 1].timestamp - pts[i].timestamp > t_threshold:
            members = pts[i:j]
            stops.append(StopPoint(members[0].taxi_id, members[0].timestamp,
                                   members[-1].timestamp,
                                   left_fold(p.lat for p in members) / len(members),
                                   left_fold(p.lon for p in members) / len(members)))
            i = j
        else:
            i += 1
    return stops


def reference_extract_trips(traj, stops):
    """A trip from each stop's last point to the next stop's first, found by
    timestamp: a taxi has one point per timestamp."""
    at = {p.timestamp: p for p in traj.points}
    return [Trip(traj.taxi_id, at[prev.dwell_end], at[nxt.dwell_start],
                 distance(at[prev.dwell_end], at[nxt.dwell_start]),
                 nxt.dwell_start - prev.dwell_end)
            for prev, nxt in zip(stops, stops[1:])]


def reference_trips_to_events(trips, root):
    """Departure then visit event per trip, each endpoint located by a
    linear scan over the leaves; endpoints outside the root are counted."""
    events, dropped = [], 0
    for trip in trips:
        for point, kind in ((trip.depart, DEPARTURE), (trip.arrive, VISIT)):
            if root.bounds.contains(point.lat, point.lon):
                events.append(VisitEvent(trip.taxi_id,
                                         brute_force_locate(root, point.lat, point.lon),
                                         point.timestamp, kind))
            else:
                dropped += 1
    return events, dropped


def brute_force_itemsets(rows: list[frozenset[int]],
                         minsup: float) -> dict[frozenset[int], int]:
    """Support counts of every frequent itemset by full 2^m enumeration.

    Items are packed into bit masks and all 2^m - 1 candidate masks are
    counted against the row masks in vectorized chunks.
    """
    n = len(rows)
    if n == 0:
        return {}
    universe = sorted(set().union(*rows)) if rows else []
    m = len(universe)
    if m == 0:
        return {}
    bit = {item: 1 << i for i, item in enumerate(universe)}
    row_masks = np.asarray([sum(bit[i] for i in row) for row in rows],
                           dtype=np.int64)
    threshold = Fraction(str(minsup))
    result: dict[frozenset[int], int] = {}
    all_masks = np.arange(1, 1 << m, dtype=np.int64)
    for chunk in np.array_split(all_masks, max(1, len(all_masks) // 4096)):
        hits = (chunk[:, None] & row_masks[None, :]) == chunk[:, None]
        counts = hits.sum(axis=1)
        for mask, count in zip(chunk, counts):
            if count and Fraction(int(count), n) >= threshold:
                items = frozenset(item for item in universe if mask & bit[item])
                result[items] = int(count)
    return result


# The recursive quad-tree builder the preorder walk replaced, kept as the
# reference for regions.build_quadtree: one node object per node, each child's
# box a CityBounds (which refuses a box too small to halve).

@dataclass
class QuadNode:
    bounds: CityBounds
    visit_count: int
    children: tuple["QuadNode", "QuadNode", "QuadNode", "QuadNode"] | None = None
    region_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def reference_build_quadtree(events, bounds, threshold_fraction=0.01, depth_cap=16):
    arr = np.asarray(events, dtype=float).reshape(-1, 2)
    lats, lons = np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
    total = lats.size
    if total:
        n_out = int(total - bounds.contains(lats, lons).sum())
        if n_out:
            raise OutOfBoundsError(f"{n_out} event(s) outside {bounds}")
    limit = threshold_fraction * total

    def build(b, la, lo, depth):
        node = QuadNode(bounds=b, visit_count=int(la.size))
        if la.size > limit and depth < depth_cap:
            node.children = tuple(build(cb, la[m], lo[m], depth + 1)
                                  for cb, m in reference_quadrants(b, la, lo))
        return node

    root = build(bounds, lats, lons, 0)
    for region_id, leaf in enumerate(reference_leaves(root)):
        leaf.region_id = region_id
    return root


def reference_quadrants(b, lat, lon):
    """NW, NE, SW, SE: each quadrant's box and which points it holds. A point
    on a split line goes north/east."""
    mlat = (b.lat_min + b.lat_max) / 2.0
    mlon = (b.lon_min + b.lon_max) / 2.0
    north = lat >= mlat
    east = lon >= mlon
    return [(CityBounds(mlat, b.lat_max, b.lon_min, mlon), north & ~east),
            (CityBounds(mlat, b.lat_max, mlon, b.lon_max), north & east),
            (CityBounds(b.lat_min, mlat, b.lon_min, mlon), ~north & ~east),
            (CityBounds(b.lat_min, mlat, mlon, b.lon_max), ~north & east)]


def reference_leaves(root):
    """All leaves in region-id (depth-first NW, NE, SW, SE) order."""
    out = []

    def walk(node):
        if node.is_leaf:
            out.append(node)
        else:
            for child in node.children:
                walk(child)

    walk(root)
    return out


def reference_splits(root):
    """Each node's split flag, in preorder."""
    out = []

    def walk(node):
        out.append(not node.is_leaf)
        for child in node.children or ():
            walk(child)

    walk(root)
    return out


def reference_leaf_line(leaf):
    b = leaf.bounds
    return ";".join((str(leaf.region_id),
                     format_number(b.lat_min), format_number(b.lat_max),
                     format_number(b.lon_min), format_number(b.lon_max),
                     str(leaf.visit_count)))


def leaf_depths(tree):
    """The depth of each leaf of a built tree, in region-id order, from its
    preorder split flags."""
    depths, stack = [], [0]
    for split in tree.split.tolist():
        depth = stack.pop()
        if split:
            stack += [depth + 1] * 4
        else:
            depths.append(depth)
    return depths


def brute_force_locate(tree, lat: float, lon: float) -> int:
    """Linear scan over all leaves with the half-open membership rule; -1
    outside the closed root box, where no leaf may match."""
    rb, leaves = tree.bounds, tree.leaves
    matches = []
    for region, lat_min, lat_max, lon_min, lon_max in zip(
            *(column.tolist() for column in leaves.columns()[:5])):
        lat_ok = (lat_min <= lat < lat_max
                  or (lat == lat_max and lat_max == rb.lat_max))
        lon_ok = (lon_min <= lon < lon_max
                  or (lon == lon_max and lon_max == rb.lon_max))
        if lat_ok and lon_ok:
            matches.append(region)
    inside = rb.lat_min <= lat <= rb.lat_max and rb.lon_min <= lon <= rb.lon_max
    assert len(matches) == inside, f"point ({lat}, {lon}) matched leaves {matches}"
    return matches[0] if inside else -1


# The per-line trace parser the columnar reader replaced, kept verbatim (but
# for the refusal of a Rome stamp without a UTC offset) as the reference for
# ingest: one GpsPoint per accepted line, a Python set for dedup.

_ROME_TZ_RE = re.compile(r"([+-]\d{2})(:?\d{2})?$")
_ROME_FRAC_RE = re.compile(r"\.(\d+)")


@dataclass(frozen=True)
class _AdapterContext:
    taxi_id: str | None
    utc_offset_hours: float


def _check_point(taxi_id, ts, lat, lon):
    if not math.isfinite(ts) or ts < 0:
        return f"timestamp out of range: {ts}"
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        return f"latitude out of range: {lat}"
    if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
        return f"longitude out of range: {lon}"
    if not taxi_id:
        return "empty taxi id"
    if ";" in taxi_id:
        return f"taxi id holds ';': {taxi_id!r}"
    return None


def _parse_canonical(line, ctx):
    parts = line.split(";")
    if len(parts) not in (4, 5):
        raise ValueError(f"expected 4 or 5 ';'-separated fields, got {len(parts)}")
    occupied = None
    if len(parts) == 5:
        if parts[4] not in ("0", "1"):
            raise ValueError(f"bad occupancy flag: {parts[4]!r}")
        occupied = parts[4] == "1"
    return GpsPoint(parts[0].strip(), float(parts[1]), float(parts[2]),
                    float(parts[3]), occupied)


def _parse_rome_timestamp(text):
    text = stamp = text.strip()
    m = _ROME_TZ_RE.search(text)
    if m and m.group(2) is None:
        text = text + ":00"
    frac = _ROME_FRAC_RE.search(text)
    if frac:
        digits = frac.group(1)[:6].ljust(6, "0")
        text = text[:frac.start()] + "." + digits + text[frac.end():]
    local = datetime.fromisoformat(text)
    if local.tzinfo is None:  # its time would depend on the machine's time zone
        raise ValueError(f"timestamp without a UTC offset: {stamp!r}")
    return local.timestamp()


def _parse_rome(line, ctx):
    parts = line.split(";")
    if len(parts) != 3:
        raise ValueError(f"expected 3 ';'-separated fields, got {len(parts)}")
    pos = parts[2].strip()
    if not (pos.startswith("POINT(") and pos.endswith(")")):
        raise ValueError(f"bad position field: {pos!r}")
    coords = pos[len("POINT("):-1].split()
    if len(coords) != 2:
        raise ValueError(f"bad POINT contents: {pos!r}")
    ts = _parse_rome_timestamp(parts[1])
    return GpsPoint(parts[0].strip(), ts, float(coords[0]), float(coords[1]))


def _parse_sanfrancisco(line, ctx):
    parts = line.split()
    if len(parts) != 4:
        raise ValueError(f"expected 4 space-separated fields, got {len(parts)}")
    if parts[2] not in ("0", "1"):
        raise ValueError(f"bad occupancy flag: {parts[2]!r}")
    return GpsPoint(ctx.taxi_id, float(parts[3]), float(parts[0]),
                    float(parts[1]), parts[2] == "1")


def _parse_beijing(line, ctx):
    parts = line.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 ','-separated fields, got {len(parts)}")
    local = datetime.strptime(parts[1].strip(), "%Y-%m-%d %H:%M:%S")
    tz = timezone(timedelta(hours=ctx.utc_offset_hours))
    ts = local.replace(tzinfo=tz).timestamp()
    return GpsPoint(parts[0].strip(), ts, float(parts[3]), float(parts[2]))


_LINE_PARSERS = {
    "canonical": _parse_canonical,
    "rome": _parse_rome,
    "sanfrancisco": _parse_sanfrancisco,
    "beijing": _parse_beijing,
}


def reference_parse_trace(source, fmt, *, taxi_id=None, utc_offset_hours=0.0):
    """(points, ParseReport) exactly as the per-line parser produced them."""
    parse_line = _LINE_PARSERS[fmt]
    ctx = _AdapterContext(taxi_id=taxi_id, utc_offset_hours=utc_offset_hours)
    report = ParseReport()
    seen = set()
    by_taxi = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
        report.total_lines += 1
        line = line.strip()
        if not line:
            report.rejects.append((lineno, "blank line"))
            continue
        try:
            point = parse_line(line, ctx)
        except ValueError as exc:
            report.rejects.append((lineno, str(exc)))
            continue
        reason = _check_point(point.taxi_id, point.timestamp, point.lat, point.lon)
        if reason is not None:
            report.rejects.append((lineno, reason))
            continue
        key = (point.taxi_id, point.timestamp)
        if key in seen:
            report.deduplicated += 1
            continue
        seen.add(key)
        by_taxi.setdefault(point.taxi_id, []).append(point)
        report.accepted += 1
    points = []
    for tid in sorted(by_taxi):
        points.extend(sorted(by_taxi[tid], key=lambda p: p.timestamp))
    return points, report


# The per-line artifact readers the column reader replaced: each stripped,
# non-blank line split at ';' and parsed field by field, the first bad line
# raising. The references for columns.read_columns and its five loaders.

def _int64(text):
    """int() of the text, refused outside int64 as numpy refuses it."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise OverflowError("Python int too large to convert to C long")
    return value


def _label(text):
    if text not in LABELS:
        raise ValueError(f"unknown label {text!r}; expected one of {LABELS}")
    return text


def reference_rows(fh, noun, parses):
    """Each line's fields, each through its parse."""
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != len(parses):
            raise ValueError(f"expected {len(parses)} {noun} fields, got {len(f)}")
        rows.append([parse(text) for parse, text in zip(parses, f)])
    return rows


def reference_load_trips(fh):
    """[taxi id, 8 numbers] per trip."""
    return reference_rows(fh, "trip", [str] + [float] * len(TRIP_COLUMNS))


def reference_load_stay_times(fh):
    """End minus start per stop."""
    return [end - start for _, start, end, _, _ in
            reference_rows(fh, "stop", [str] + [float] * 4)]


def reference_load_tree(fh):
    """[region id, 4 bounds, visit count] per leaf, the bounds checked as a
    leaf's are once every line has parsed."""
    rows = reference_rows(fh, "leaf", [_int64] + [float] * 4 + [_int64])
    if not rows:
        raise ValueError("empty tree file")
    for row in rows:
        CityBounds(*row[1:5])
    return rows


def reference_load_labels(fh):
    """Region id -> label, a region listed twice keeping its last label."""
    return {row[0]: row[1] for row in
            reference_rows(fh, "label", [_int64, _label] + [float] * 3)}


# The per-cell artifact writers the byte-matrix writer replaced, kept as
# written (format_number's rule on Python floats and str() per cell) as the
# reference for columns.write_rows and ingest.write_canonical.

_REFERENCE_CHUNK_ROWS = 1 << 15


def id_column(taxi_ids, taxi):
    """Each row's taxi id, as an object array (a numpy string array would
    drop trailing NUL characters)."""
    return np.array(taxi_ids, dtype=object)[taxi]


def _reference_format_column(x):
    """format_number of every value, with the integral test done on the array."""
    integral = np.isfinite(x) & (np.trunc(x) == x) & (np.abs(x) < 2**53)
    if integral.all():
        return list(map(str, x.astype(np.int64).tolist()))
    out = list(map(repr, x.tolist()))
    for i in np.flatnonzero(integral).tolist():
        out[i] = str(int(x[i]))
    return out


def reference_write_canonical(trace, fh):
    """One ``taxi_id;timestamp;lat;lon[;occ]`` line per fix, in order."""
    ids, t, lat, lon, occ = (row_taxi_ids(trace), trace.t, trace.lat, trace.lon,
                             row_occupied(trace))
    for a in range(0, len(ids), _REFERENCE_CHUNK_ROWS):
        b = a + _REFERENCE_CHUNK_ROWS
        fh.writelines(f"{tid};{ts};{la};{lo}" + ("\n" if oc is None else f";{int(oc)}\n")
                      for tid, ts, la, lo, oc in zip(ids[a:b], _reference_format_column(t[a:b]),
                                                     _reference_format_column(lat[a:b]),
                                                     _reference_format_column(lon[a:b]),
                                                     occ[a:b]))


def reference_write_rows(fh, columns):
    """One line of ';'-joined fields per row: a float column as
    format_number prints it, any other column by str()."""
    for a in range(0, len(columns[0]), _REFERENCE_CHUNK_ROWS):
        fields = [_reference_format_column(c[a:a + _REFERENCE_CHUNK_ROWS]) if c.dtype.kind == "f"
                  else map(str, c[a:a + _REFERENCE_CHUNK_ROWS].tolist()) for c in columns]
        fh.writelines(";".join(row) + "\n" for row in zip(*fields))


# The id compaction by sort and binary search that the count and cumulative
# sum replaced, kept as written as the reference for columns.compact_codes.

def reference_compact_codes(taxi_ids, taxi):
    """The ids that codes ``taxi`` use, in table order, and ``taxi`` recoded into them."""
    used = np.unique(taxi)
    return tuple(taxi_ids[k] for k in used.tolist()), np.searchsorted(used, taxi)


# The per-object visit-event code the column table replaced, kept as written
# as the reference for the events reader, the hour tables and the DTN kernels.

def reference_load_events(fh):
    """One VisitEvent per non-blank line, as the per-line reader built them."""
    return [VisitEvent(*row) for row in reference_rows(fh, "event", [str, _int64, float, str])]


def reference_hourly_transactions(events, utc_offset_hours=0.0):
    """Hour key -> the hour's rows, one region set per taxi in id order, keys ascending."""
    grouped = {}
    for e in events:
        key = local_hour_key(e.timestamp, utc_offset_hours)
        grouped.setdefault(key, {}).setdefault(e.taxi_id, set()).add(e.region_id)
    return {key: tuple(frozenset(grouped[key][t]) for t in sorted(grouped[key]))
            for key in sorted(grouped)}


def rows_of(table):
    """A ``TransactionTable``'s rows as region sets, row 0 first."""
    rows = [set() for _ in range(table.n_rows)]
    for r, region in zip(table.row.tolist(), table.region.tolist()):
        rows[r].add(region)
    return tuple(frozenset(r) for r in rows)


# The row-set Apriori miner the bitmap one replaced, kept as written as the
# reference for it: every candidate tested against every row with <=.

def reference_apriori(rows, minsup):
    """Frequent itemsets of the region sets ``rows``, by (size, items)."""
    n = len(rows)
    if n == 0:
        return []
    threshold = math.ceil(Fraction(str(minsup)) * n)

    singleton_counts = Counter()
    for row in rows:
        singleton_counts.update(row)
    frequent = {(item,): c for item, c in singleton_counts.items() if c >= threshold}
    result = dict(frequent)

    while frequent:
        prev = sorted(frequent)
        prev_set = set(prev)
        candidates = []
        for i, a in enumerate(prev):
            for b in prev[i + 1:]:
                if a[:-1] != b[:-1]:
                    break  # sorted order: no later b shares a's prefix
                cand = a + (b[-1],)
                if all(sub in prev_set for sub in combinations(cand, len(cand) - 1)):
                    candidates.append(cand)
        if not candidates:
            break
        counts = {c: 0 for c in candidates}
        cand_sets = [(c, frozenset(c)) for c in candidates]
        for row in rows:
            for cand, cand_set in cand_sets:
                if cand_set <= row:
                    counts[cand] += 1
        frequent = {c: n_c for c, n_c in counts.items() if n_c >= threshold}
        result.update(frequent)

    return [FrequentItemset(items=frozenset(items), count=result[items], n_rows=n)
            for items in sorted(result, key=lambda t: (len(t), t))]


def reference_candidates(frequent):
    """Apriori's C_k by its definition: every k-set of items whose
    (k-1)-subsets are all in F_{k-1} (ascending tuples), ascending."""
    if not frequent:
        return []
    level = set(frequent)
    k = len(frequent[0]) + 1
    items = sorted(set().union(*frequent))
    return [c for c in combinations(items, k)
            if all(sub in level for sub in combinations(c, k - 1))]


def reference_encounters(events, bin_width):
    """An EncounterEvent per co-visit, by region, bin, ids."""
    groups = {}
    for e in events:
        b = math.floor(e.timestamp / bin_width)
        groups.setdefault((e.region_id, b), set()).add(e.taxi_id)
    out = []
    for (region, b) in sorted(groups):
        taxis = sorted(groups[(region, b)])
        for i, a in enumerate(taxis):
            for c in taxis[i + 1:]:
                out.append(EncounterEvent(a, c, region, b * bin_width))
    return out


def reference_propagate(publishers, subscribers, encounter_seq):
    """Deliver each publisher's copy at its first subscriber encounter.

    Encounters must already be time-sorted. Only direct publisher-to-subscriber
    contact delivers; there is no relaying and no copy expiry.
    """
    pubs = set(publishers)
    subs = set(subscribers)
    carrying = set(pubs)
    times: dict[str, float | None] = {p: None for p in sorted(pubs)}
    for enc in encounter_seq:
        if not carrying:
            break
        if enc.taxi_a in carrying and enc.taxi_b in subs:
            times[enc.taxi_a] = enc.bin_start
            carrying.discard(enc.taxi_a)
        if enc.taxi_b in carrying and enc.taxi_a in subs:
            times[enc.taxi_b] = enc.bin_start
            carrying.discard(enc.taxi_b)
    delivered = sum(1 for t in times.values() if t is not None)
    total = len(pubs)
    return SimOutcome(delivered=delivered, total=total,
                      delivery_ratio=delivered / total if total else 0.0,
                      delivery_times=times)


def reference_in_window(events, window):
    start, end = window
    return [e for e in events if start <= e.timestamp < end]


def reference_select_oracle(events, hot_regions, k, exclude=frozenset()):
    counts = Counter()
    active = set()
    for e in events:
        if e.taxi_id in exclude:
            continue
        active.add(e.taxi_id)
        if e.region_id in hot_regions:
            counts[e.taxi_id] += 1
    if len(active) < k:
        raise SelectionError(f"need {k} active taxis, only {len(active)} available")
    ranked = sorted(active, key=lambda t: (-counts[t], t))
    return set(ranked[:k])


def reference_hot_regions_for_window(window, region_labels, time_windows, utc_offset_hours):
    """Step through every local hour of the window."""
    start, end = window
    wanted = set()
    if start < end:
        tz = timezone(timedelta(hours=utc_offset_hours))
        hour = datetime.fromtimestamp(start, tz).replace(minute=0, second=0, microsecond=0)
        while hour.timestamp() < end:
            w = time_windows.window_of((hour.weekday(), hour.hour))
            if w is not None:
                wanted.add(WINDOW_LABEL[w])
            hour += timedelta(hours=1)
    return frozenset(r for r, lab in region_labels.items() if lab in wanted)


# The per-line sample reader `cityregions fit` used before it read the file in
# one block, kept as written as the reference for cli._read_samples.

def reference_read_samples(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    value = float(line)
                except ValueError:
                    raise ValueError(f"{path}:{number}: not a number: "
                                     f"{line.strip()!r}") from None
                if value == math.inf:  # NaN and the non-positive are dropped by the fit
                    raise ValueError(f"{path}:{number}: not a finite number: "
                                     f"{line.strip()!r}")
                values.append(value)
    return values


# The z < 1 series' coefficients (-1)^k / k! as the normalizer divided them
# on every call before they were precomputed, kept as written as the
# reference for stats._SERIES_STEPS.

def reference_series_steps(terms):
    steps = []
    coef = 1.0
    for k in range(1, terms + 1):
        coef /= -k
        steps.append((coef, k))
    return steps


# Legendre's continued fraction as the normalizer summed it before its loop
# constants were precomputed, kept as written as the reference for
# stats._gamma_cf. At z = 1 it is also the old form of stats._gamma_at_1,
# which the fit-agreement test puts back in the Chebyshev series' place.

def reference_gamma_cf(s, z):
    u = z - 1.0 - s
    i = 110.0
    t = u + 2.0 * i + 2.0
    while i:
        t = u + 2.0 * i - i * (i - s) / t
        i -= 1.0
    return 1.0 / t
