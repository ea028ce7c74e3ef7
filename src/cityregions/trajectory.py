"""Segment taxi point streams into trajectories, detect stops, extract trips.

A trajectory breaks wherever the gap between consecutive fixes reaches the
segmentation threshold (default 30 min). A stop is a dwell of more than
``t_threshold`` seconds (default 6 min) within ``d_threshold`` metres
(default 50 m) of its first point; consecutive stops bracket one trip.

One column scan finds them over a whole ``Trace`` (``stops_and_trips``) and
returns them as a ``StopTable`` and a ``TripTable``, the only forms the
pipeline passes on. ``segment``, ``detect_stops``, ``extract_trips`` and
``great_circle`` remain for one taxi's ``GpsPoint`` list: they build their
objects from the same scan's rows, no stage calls them, and the benchmark's
tracer still wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .ingest import (GpsPoint, TaxiCodes, Trace, compact_codes, id_column, left_sum,
                     read_columns, write_rows)

EARTH_RADIUS_M = 6_371_000.0

DEFAULT_SEGMENT_GAP_S = 1800.0
DEFAULT_STOP_DISTANCE_M = 50.0
DEFAULT_STOP_DURATION_S = 360.0

# numpy's sin/cos/arcsin may differ from math's in the last bits, so a numpy
# distance decides a step only beyond this relative margin over the threshold
_GUARD = 1e-9


@dataclass(frozen=True)
class Trajectory:
    taxi_id: str
    points: tuple[GpsPoint, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class StopPoint:
    """A dwell: every member point lies within the distance threshold of the anchor."""

    taxi_id: str
    anchor: GpsPoint
    last_point: GpsPoint
    dwell_start: float
    dwell_end: float
    centroid_lat: float
    centroid_lon: float

    @property
    def dwell_s(self) -> float:
        return self.dwell_end - self.dwell_start


@dataclass(frozen=True, slots=True)
class Trip:
    """One passenger carry, bracketed by the GPS points of two consecutive stops."""

    taxi_id: str
    depart: GpsPoint
    arrive: GpsPoint
    length_m: float
    duration_s: float


@dataclass(frozen=True, eq=False)
class StopTable:
    """Stops as columns, in trace order: taxi ``taxi_ids[taxi[i]]`` dwelt from
    ``dwell_start[i]`` to ``dwell_end[i]`` around (``centroid_lat[i]``,
    ``centroid_lon[i]``). ``taxi_ids`` is ascending and may list taxis with
    no stop."""

    taxi_ids: tuple[str, ...]
    taxi: np.ndarray
    dwell_start: np.ndarray
    dwell_end: np.ndarray
    centroid_lat: np.ndarray
    centroid_lon: np.ndarray

    def __len__(self) -> int:
        return len(self.taxi)


TRIP_COLUMNS = ("depart_t", "depart_lat", "depart_lon", "arrive_t", "arrive_lat",
                "arrive_lon", "length_m", "duration_s")


@dataclass(frozen=True, eq=False)
class TripTable:
    """Trips as float64 columns (``TRIP_COLUMNS``), in input order.

    Row i is taxi ``taxi_ids[taxi[i]]`` (``taxi_ids`` ascending, so code order
    is id order) leaving (``depart_t``, ``depart_lat``, ``depart_lon``) and
    reaching (``arrive_t``, ...) after ``length_m`` metres and ``duration_s``
    seconds.
    """

    taxi_ids: tuple[str, ...]
    taxi: np.ndarray
    depart_t: np.ndarray
    depart_lat: np.ndarray
    depart_lon: np.ndarray
    arrive_t: np.ndarray
    arrive_lat: np.ndarray
    arrive_lon: np.ndarray
    length_m: np.ndarray
    duration_s: np.ndarray

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in TRIP_COLUMNS]

    def __len__(self) -> int:
        return len(self.taxi)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres on a sphere of radius 6,371 km."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def great_circle(p: GpsPoint, q: GpsPoint) -> float:
    return haversine_m(p.lat, p.lon, q.lat, q.lon)


def _point_columns(points: Sequence[GpsPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.array([getattr(p, name) for p in points], dtype=np.float64)
                 for name in ("timestamp", "lat", "lon"))


def _breaks(t: np.ndarray, offsets, delta_t: float) -> np.ndarray:
    """Whether step i -> i+1 leaves its trajectory: into the next taxi's rows
    (``offsets``) or over a gap >= delta_t seconds."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    brk = np.diff(t) >= delta_t
    brk[np.asarray(offsets)[1:-1] - 1] = True
    return brk


def _far_steps(lat: np.ndarray, lon: np.ndarray, d_threshold: float) -> np.ndarray:
    """Whether step i -> i+1 is surely longer than d_threshold metres.

    The numpy haversine may differ from ``haversine_m`` in the last bits, so
    only a distance beyond d_threshold * (1 + _GUARD) decides. Near the
    antipode arcsin's slope is unbounded and that margin would not hold, so
    a threshold of 3 Earth radii or more decides no step here.
    """
    if d_threshold >= 3.0 * EARTH_RADIUS_M:
        return np.zeros(max(len(lat) - 1, 0), dtype=bool)
    with np.errstate(invalid="ignore"):  # a NaN distance is left to the scalar scan
        phi = np.radians(lat)
        a = (np.sin(np.radians(np.diff(lat)) / 2.0) ** 2
             + np.cos(phi[:-1]) * np.cos(phi[1:]) * np.sin(np.radians(np.diff(lon)) / 2.0) ** 2)
        d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    return d > d_threshold * (1.0 + _GUARD)


def _scan(t: np.ndarray, lat: np.ndarray, lon: np.ndarray, offsets, brk: np.ndarray,
          d_threshold: float, t_threshold: float) -> tuple[np.ndarray, ...]:
    """Stops and the trips between them, by row: (first row, last row,
    centroid lat, centroid lon) per stop and (departure row, arrival row) per
    trip.

    The stop rule is ``detect_stops``'s within each trajectory (``brk`` marks
    the steps between trajectories; ``offsets`` the taxis' rows). An anchor
    whose next step leaves its trajectory or is surely beyond d_threshold
    has a one-point window, which is no stop, so the scalar scan starts only
    from the other anchors. Columns become lists one taxi at a time.
    """
    if d_threshold <= 0 or t_threshold <= 0:
        raise ValueError("thresholds must be positive")
    offsets = np.asarray(offsets).tolist()
    candidates = np.flatnonzero(~(brk | _far_steps(lat, lon, d_threshold)))
    cuts = np.append(np.flatnonzero(brk) + 1, len(t))
    ends = cuts[np.searchsorted(cuts, candidates, side="right")]  # of each one's trajectory
    per_taxi = np.searchsorted(candidates, offsets).tolist()
    first, last, clat, clon = [], [], [], []
    for a, b, ca, cb in zip(offsets, offsets[1:], per_taxi, per_taxi[1:]):
        if ca == cb:
            continue
        ts, lats, lons = t[a:b].tolist(), lat[a:b].tolist(), lon[a:b].tolist()
        resume = 0
        for i, end in zip((candidates[ca:cb] - a).tolist(), (ends[ca:cb] - a).tolist()):
            if i < resume:
                continue
            anchor_lat, anchor_lon = lats[i], lons[i]
            j = i + 1
            while j < end and haversine_m(anchor_lat, anchor_lon, lats[j], lons[j]) <= d_threshold:
                j += 1
            if ts[j - 1] - ts[i] > t_threshold:
                first.append(a + i)
                last.append(a + j - 1)
                clat.append(left_sum(lats[i:j]) / (j - i))
                clon.append(left_sum(lons[i:j]) / (j - i))
                resume = j
    first, last = np.array(first, dtype=np.int64), np.array(last, dtype=np.int64)
    depart, arrive = _trip_rows(first, last, np.searchsorted(np.flatnonzero(brk), first))
    return (first, last, np.array(clat, dtype=np.float64), np.array(clon, dtype=np.float64),
            depart, arrive)


def _trip_rows(first: np.ndarray, last: np.ndarray,
               trajectory: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A trip leaves each stop's last row for the next stop's first row, when
    both stops lie in one trajectory (``trajectory`` numbers each stop's)."""
    same = trajectory[1:] == trajectory[:-1]
    return last[:-1][same], first[1:][same]


def _trip_columns(t: np.ndarray, lat: np.ndarray, lon: np.ndarray, depart: np.ndarray,
                  arrive: np.ndarray) -> list[np.ndarray]:
    """The ``TRIP_COLUMNS`` of trips from rows ``depart`` to rows ``arrive``."""
    dlat, dlon, alat, alon = lat[depart], lon[depart], lat[arrive], lon[arrive]
    length = np.fromiter(map(haversine_m, dlat.tolist(), dlon.tolist(), alat.tolist(),
                             alon.tolist()), np.float64, len(depart))
    return [t[depart], dlat, dlon, t[arrive], alat, alon, length, t[arrive] - t[depart]]


def stops_and_trips(trace: Trace,
                    delta_t: float = DEFAULT_SEGMENT_GAP_S,
                    d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                    t_threshold: float = DEFAULT_STOP_DURATION_S,
                    ) -> tuple[StopTable, TripTable]:
    """Every taxi's stops and trips as columns: what ``segment``,
    ``detect_stops`` and ``extract_trips`` give for each taxi of the trace in
    turn. The trip table lists only the taxis with a trip."""
    t, lat, lon = trace.t, trace.lat, trace.lon
    first, last, clat, clon, depart, arrive = _scan(
        t, lat, lon, trace.offsets, _breaks(t, trace.offsets, delta_t), d_threshold,
        t_threshold)
    def taxi_of(rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(trace.offsets, rows, side="right") - 1

    stops = StopTable(trace.taxi_ids, taxi_of(first), t[first], t[last], clat, clon)
    trips = TripTable(*compact_codes(trace.taxi_ids, taxi_of(depart)),
                      *_trip_columns(t, lat, lon, depart, arrive))
    return stops, trips


def segment(points: Sequence[GpsPoint],
            delta_t: float = DEFAULT_SEGMENT_GAP_S) -> list[Trajectory]:
    """Split one taxi's time-sorted points at every gap >= delta_t seconds."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if not points:
        return []
    taxi_id = points[0].taxi_id
    for i, p in enumerate(points):
        if p.taxi_id != taxi_id:
            raise ValueError(f"mixed taxi ids at index {i}: {p.taxi_id!r} != {taxi_id!r}")
        if i and p.timestamp <= points[i - 1].timestamp:
            raise ValueError(f"timestamps not strictly increasing at index {i}")
    t = np.array([p.timestamp for p in points], dtype=np.float64)
    cuts = [0, *(np.flatnonzero(_breaks(t, [0, len(t)], delta_t)) + 1).tolist(), len(points)]
    return [Trajectory(taxi_id, tuple(points[a:b])) for a, b in zip(cuts, cuts[1:])]


def detect_stops(traj: Trajectory,
                 d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                 t_threshold: float = DEFAULT_STOP_DURATION_S) -> list[StopPoint]:
    """Find non-overlapping stops, scanning left to right.

    From each candidate anchor the window extends while points stay within
    d_threshold of the anchor; the window is a stop when its elapsed time
    exceeds t_threshold (strict) and the next point, if any, lies beyond
    d_threshold. After a stop, scanning resumes at that next point; after a
    failed window the anchor advances by one point. The centroid is the
    members' mean, summed left to right.
    """
    pts = traj.points
    t, lat, lon = _point_columns(pts)
    first, last, clat, clon, _, _ = _scan(t, lat, lon, [0, len(pts)],
                                          np.zeros(max(len(pts) - 1, 0), dtype=bool),
                                          d_threshold, t_threshold)
    return [StopPoint(pts[i].taxi_id, pts[i], pts[j], pts[i].timestamp, pts[j].timestamp,
                      la, lo)
            for i, j, la, lo in zip(first.tolist(), last.tolist(), clat.tolist(), clon.tolist())]


def extract_trips(traj: Trajectory, stops: Sequence[StopPoint]) -> list[Trip]:
    """Pair consecutive stops into trips: leave the first stop, reach the next."""
    ends = [p for s in stops for p in (s.anchor, s.last_point)]
    rows = np.arange(len(ends))
    depart, arrive = _trip_rows(rows[0::2], rows[1::2], np.zeros(len(stops)))
    *_, length, duration = _trip_columns(*_point_columns(ends), depart, arrive)
    return [Trip(traj.taxi_id, ends[a], ends[b], m, s)
            for a, b, m, s in zip(depart.tolist(), arrive.tolist(), length.tolist(),
                                  duration.tolist())]


def write_trips(trips: TripTable, fh: IO[str]) -> None:
    """One ``taxi_id;depart t;lat;lon;arrive t;lat;lon;length_m;duration_s``
    line per trip."""
    write_rows(fh, [id_column(trips.taxi_ids, trips.taxi), *trips.columns()])


def _trip_fields(line: str) -> list[float]:
    """The numbers of one trips line, as the per-line reader parsed them."""
    f = line.split(";")
    if len(f) != 9:
        raise ValueError(f"expected 9 trip fields, got {len(f)}")
    return [float(x) for x in f[1:]]


def load_trips(fh: IO[str]) -> TripTable:
    """Read a trips file into columns, a chunk of lines at a time.

    Blank lines are skipped and lines stripped; numbers parse with float(),
    and a malformed line raises the error reading it alone raises.
    """
    codes = TaxiCodes()
    n_fields = 1 + len(TRIP_COLUMNS)

    def convert(fields: list[str], n: int) -> list[np.ndarray]:
        return [codes.encode(fields[0::n_fields]),
                *(np.fromiter(map(float, fields[k::n_fields]), np.float64, n)
                  for k in range(1, n_fields))]

    taxi, *columns = read_columns(fh, (np.int64,) + (np.float64,) * len(TRIP_COLUMNS),
                                  convert, _trip_fields)
    return TripTable(*codes.ranked(taxi), *columns)


def write_stops(stops: StopTable, fh: IO[str]) -> None:
    write_rows(fh, [id_column(stops.taxi_ids, stops.taxi), stops.dwell_start, stops.dwell_end,
                    stops.centroid_lat, stops.centroid_lon])


def load_stay_times(fh: IO[str]) -> list[float]:
    """Dwell durations (seconds) from a stops file."""
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != 5:
            raise ValueError(f"expected 5 stop fields, got {len(f)}")
        out.append(float(f[2]) - float(f[1]))
    return out
