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

import numpy as np

from cityregions.ingest import GpsPoint, ParseReport, TaxiCodes, Trace
from cityregions.dtn import SelectionError
from cityregions.functions import TransactionTable, local_hour_key
from cityregions.regions import DEPARTURE, VISIT, EventTable, QuadNode, leaves
from cityregions.trajectory import (TRIP_COLUMNS, StopPoint, Trajectory, Trip, TripTable,
                                    great_circle)


# Rows: the program passes traces, trips and events as column tables only;
# the oracles and the hand-written cases speak in one object per row, and
# these helpers turn one form into the other.

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


def points_of(trace: Trace) -> list[GpsPoint]:
    """A Trace's rows as GpsPoints."""
    return [GpsPoint(*row) for row in zip(trace.row_taxi_ids(), trace.t.tolist(),
                                          trace.lat.tolist(), trace.lon.tolist(),
                                          trace.row_occupied())]


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
            window_ok = all(great_circle(pts[i], pts[m]) <= d_threshold
                            for m in range(i, j + 1))
            terminator_ok = (j + 1 == n
                             or great_circle(pts[i], pts[j + 1]) > d_threshold)
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
            anchor=pts[i],
            last_point=pts[j],
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
        while j < len(pts) and great_circle(pts[i], pts[j]) <= d_threshold:
            j += 1
        if pts[j - 1].timestamp - pts[i].timestamp > t_threshold:
            members = pts[i:j]
            stops.append(StopPoint(members[0].taxi_id, members[0], members[-1],
                                   members[0].timestamp, members[-1].timestamp,
                                   left_fold(p.lat for p in members) / len(members),
                                   left_fold(p.lon for p in members) / len(members)))
            i = j
        else:
            i += 1
    return stops


def reference_extract_trips(traj, stops):
    return [Trip(traj.taxi_id, prev.last_point, nxt.anchor,
                 great_circle(prev.last_point, nxt.anchor),
                 nxt.anchor.timestamp - prev.last_point.timestamp)
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


def brute_force_locate(root: QuadNode, lat: float, lon: float) -> int:
    """Linear scan over all leaves with the half-open membership rule."""
    rb = root.bounds
    matches = []
    for leaf in leaves(root):
        b = leaf.bounds
        lat_ok = (b.lat_min <= lat < b.lat_max
                  or (lat == b.lat_max and b.lat_max == rb.lat_max))
        lon_ok = (b.lon_min <= lon < b.lon_max
                  or (lon == b.lon_max and b.lon_max == rb.lon_max))
        if lat_ok and lon_ok:
            matches.append(leaf.region_id)
    assert len(matches) == 1, f"point ({lat}, {lon}) matched leaves {matches}"
    return matches[0]


# The per-line trace parser the columnar reader replaced, kept verbatim as the
# reference for ingest: one GpsPoint per accepted line, a Python set for dedup.

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
    text = text.strip()
    m = _ROME_TZ_RE.search(text)
    if m and m.group(2) is None:
        text = text + ":00"
    frac = _ROME_FRAC_RE.search(text)
    if frac:
        digits = frac.group(1)[:6].ljust(6, "0")
        text = text[:frac.start()] + "." + digits + text[frac.end():]
    return datetime.fromisoformat(text).timestamp()


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


# The per-object visit-event code the column table replaced, kept as written
# as the reference for the events reader, the hour tables and the DTN kernels.

def reference_load_events(fh):
    """One VisitEvent per non-blank line, as the per-line reader built them."""
    events = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != 4:
            raise ValueError(f"expected 4 event fields, got {len(f)}")
        events.append(VisitEvent(f[0], int(f[1]), float(f[2]), f[3]))
    return events


def reference_hourly_transactions(events, utc_offset_hours=0.0):
    grouped = {}
    for e in events:
        key = local_hour_key(e.timestamp, utc_offset_hours)
        grouped.setdefault(key, {}).setdefault(e.taxi_id, set()).add(e.region_id)
    tables = {}
    for key in sorted(grouped):
        per_taxi = grouped[key]
        rows = tuple(frozenset(per_taxi[t]) for t in sorted(per_taxi) if per_taxi[t])
        items = frozenset().union(*rows) if rows else frozenset()
        tables[key] = TransactionTable(hour_key=key, items=items, rows=rows)
    return tables


def reference_encounters(events, bin_width):
    """(taxi_a, taxi_b, region, bin_start) per co-visit, by region, bin, ids."""
    groups = {}
    for e in events:
        b = math.floor(e.timestamp / bin_width)
        groups.setdefault((e.region_id, b), set()).add(e.taxi_id)
    out = []
    for (region, b) in sorted(groups):
        taxis = sorted(groups[(region, b)])
        for i, a in enumerate(taxis):
            for c in taxis[i + 1:]:
                out.append((a, c, region, b * bin_width))
    return out


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
