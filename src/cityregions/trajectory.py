"""Segment taxi point streams into trajectories, detect stops, extract trips.

A trajectory breaks wherever the gap between consecutive fixes reaches the
segmentation threshold (default 30 min). A stop is a dwell of more than
``t_threshold`` seconds (default 6 min) within ``d_threshold`` metres
(default 50 m) of its first point; consecutive stops bracket one trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .ingest import GpsPoint, Trace, format_number

EARTH_RADIUS_M = 6_371_000.0

DEFAULT_SEGMENT_GAP_S = 1800.0
DEFAULT_STOP_DISTANCE_M = 50.0
DEFAULT_STOP_DURATION_S = 360.0


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


def _taxi_times(points: Sequence[GpsPoint]) -> tuple[str, np.ndarray]:
    """One taxi's id and timestamps, checked strictly increasing."""
    if isinstance(points, Trace):
        if len(points.taxi_ids) > 1:  # rows are sorted and unique within a taxi
            i = int(points.offsets[1])
            raise ValueError(f"mixed taxi ids at index {i}: "
                             f"{points.taxi_ids[1]!r} != {points.taxi_ids[0]!r}")
        return points.taxi_ids[0], points.t
    taxi_id = points[0].taxi_id
    for i, p in enumerate(points):
        if p.taxi_id != taxi_id:
            raise ValueError(f"mixed taxi ids at index {i}: {p.taxi_id!r} != {taxi_id!r}")
        if i and p.timestamp <= points[i - 1].timestamp:
            raise ValueError(f"timestamps not strictly increasing at index {i}")
    return taxi_id, np.array([p.timestamp for p in points], dtype=np.float64)


def segment(points: Sequence[GpsPoint],
            delta_t: float = DEFAULT_SEGMENT_GAP_S) -> list[Trajectory]:
    """Split one taxi's time-sorted points (a list or a one-taxi Trace) at
    every gap >= delta_t seconds."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if not len(points):
        return []
    taxi_id, t = _taxi_times(points)
    if isinstance(points, Trace):
        points = points.points()
    cuts = [0, *(np.flatnonzero(np.diff(t) >= delta_t) + 1).tolist(), len(t)]
    return [Trajectory(taxi_id, tuple(points[a:b])) for a, b in zip(cuts, cuts[1:])]


def _make_stop(members: Sequence[GpsPoint]) -> StopPoint:
    clat = sum(p.lat for p in members) / len(members)
    clon = sum(p.lon for p in members) / len(members)
    return StopPoint(taxi_id=members[0].taxi_id,
                     anchor=members[0],
                     last_point=members[-1],
                     dwell_start=members[0].timestamp,
                     dwell_end=members[-1].timestamp,
                     centroid_lat=clat,
                     centroid_lon=clon)


def detect_stops(traj: Trajectory,
                 d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                 t_threshold: float = DEFAULT_STOP_DURATION_S) -> list[StopPoint]:
    """Find non-overlapping stops, scanning left to right.

    From each candidate anchor the window extends while points stay within
    d_threshold of the anchor; the window is a stop when its elapsed time
    exceeds t_threshold (strict) and the next point, if any, lies beyond
    d_threshold. After a stop, scanning resumes at that next point; after a
    failed window the anchor advances by one point.
    """
    if d_threshold <= 0 or t_threshold <= 0:
        raise ValueError("thresholds must be positive")
    pts = traj.points
    stops: list[StopPoint] = []
    i = 0
    while i < len(pts):
        j = i + 1
        while j < len(pts) and great_circle(pts[i], pts[j]) <= d_threshold:
            j += 1
        if pts[j - 1].timestamp - pts[i].timestamp > t_threshold:
            stops.append(_make_stop(pts[i:j]))
            i = j
        else:
            i += 1
    return stops


def extract_trips(traj: Trajectory, stops: Sequence[StopPoint]) -> list[Trip]:
    """Pair consecutive stops into trips: leave the first stop, reach the next."""
    trips: list[Trip] = []
    for prev, nxt in zip(stops, stops[1:]):
        depart = prev.last_point
        arrive = nxt.anchor
        trips.append(Trip(taxi_id=traj.taxi_id,
                          depart=depart,
                          arrive=arrive,
                          length_m=great_circle(depart, arrive),
                          duration_s=arrive.timestamp - depart.timestamp))
    return trips


def trips_for_points(points: Sequence[GpsPoint],
                     delta_t: float = DEFAULT_SEGMENT_GAP_S,
                     d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                     t_threshold: float = DEFAULT_STOP_DURATION_S,
                     ) -> tuple[list[Trajectory], list[StopPoint], list[Trip]]:
    """Run the full chain for one taxi: segment, detect stops, extract trips."""
    trajectories = segment(points, delta_t)
    all_stops: list[StopPoint] = []
    all_trips: list[Trip] = []
    for traj in trajectories:
        stops = detect_stops(traj, d_threshold, t_threshold)
        all_stops.extend(stops)
        all_trips.extend(extract_trips(traj, stops))
    return trajectories, all_stops, all_trips


def trip_line(t: Trip) -> str:
    fields = (t.taxi_id,
              format_number(t.depart.timestamp), format_number(t.depart.lat),
              format_number(t.depart.lon),
              format_number(t.arrive.timestamp), format_number(t.arrive.lat),
              format_number(t.arrive.lon),
              format_number(t.length_m), format_number(t.duration_s))
    return ";".join(fields)


def write_trips(trips: Iterable[Trip], fh: IO[str]) -> None:
    for t in trips:
        fh.write(trip_line(t) + "\n")


def load_trips(fh: IO[str]) -> list[Trip]:
    trips = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != 9:
            raise ValueError(f"expected 9 trip fields, got {len(f)}")
        depart = GpsPoint(f[0], float(f[1]), float(f[2]), float(f[3]))
        arrive = GpsPoint(f[0], float(f[4]), float(f[5]), float(f[6]))
        trips.append(Trip(f[0], depart, arrive, float(f[7]), float(f[8])))
    return trips


def write_stops(stops: Iterable[StopPoint], fh: IO[str]) -> None:
    for s in stops:
        fh.write(";".join((s.taxi_id,
                           format_number(s.dwell_start), format_number(s.dwell_end),
                           format_number(s.centroid_lat), format_number(s.centroid_lon)))
                 + "\n")


def load_stay_times(fh: IO[str]) -> list[float]:
    """Dwell durations (seconds) from a stops file."""
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        out.append(float(f[2]) - float(f[1]))
    return out
