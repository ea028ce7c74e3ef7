"""Segment taxi point streams into trajectories, detect stops, extract trips.

A trajectory breaks wherever the gap between consecutive fixes reaches the
segmentation threshold (default 30 min). A stop is a dwell of more than
``t_threshold`` seconds (default 6 min) within ``d_threshold`` metres
(default 50 m) of its first point; consecutive stops bracket one trip.

``stops_and_trips`` runs the three steps over a whole ``Trace``:
``segment`` marks the breaks between trajectories, ``detect_stops`` scans
the rows of each one for stops, and ``extract_trips`` pairs consecutive stops
of a trajectory into trips. Stops and trips leave as a ``StopTable`` and a
``TripTable``, the only forms the pipeline passes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .ingest import (FLOAT_FIELD, TaxiCodes, Trace, compact_codes, left_sum, read_columns,
                     write_rows)

EARTH_RADIUS_M = 6_371_000.0

DEFAULT_SEGMENT_GAP_S = 1800.0
DEFAULT_STOP_DISTANCE_M = 50.0
DEFAULT_STOP_DURATION_S = 360.0

# numpy's sin/cos/arcsin may differ from math's in the last bits, so a numpy
# distance decides a step only beyond this relative margin over the threshold
_GUARD = 1e-9


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


def great_circle(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres on a sphere of radius 6,371 km."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def segment(trace: Trace, delta_t: float = DEFAULT_SEGMENT_GAP_S) -> np.ndarray:
    """The trajectory breaks: whether step i -> i+1 leaves its trajectory, into
    the next taxi's rows or over a gap >= delta_t seconds."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    brk = np.diff(trace.t) >= delta_t
    brk[trace.offsets[1:-1] - 1] = True
    return brk


def _far_steps(lat: np.ndarray, lon: np.ndarray, d_threshold: float) -> np.ndarray:
    """Whether step i -> i+1 is surely longer than d_threshold metres.

    The numpy haversine may differ from ``great_circle`` in the last bits, so
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


def detect_stops(trace: Trace, brk: np.ndarray,
                 d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                 t_threshold: float = DEFAULT_STOP_DURATION_S) -> tuple[np.ndarray, ...]:
    """Non-overlapping stops within each trajectory (``brk`` is ``segment``'s),
    scanning left to right: each stop's first row, last row, centroid lat and
    centroid lon.

    From each candidate anchor the window extends while points stay within
    d_threshold of the anchor (by ``great_circle``); the window is a stop when
    its elapsed time exceeds t_threshold (strict) and the next point of its
    trajectory, if any, lies beyond d_threshold. After a stop, scanning
    resumes at that next point; after a failed window the anchor advances by
    one point. The centroid is the members' mean, summed left to right.

    An anchor whose next step leaves its trajectory or is surely beyond
    d_threshold has a one-point window, which is no stop, so the scalar scan
    starts only from the other anchors. Columns become lists one taxi at a
    time.
    """
    if d_threshold <= 0 or t_threshold <= 0:
        raise ValueError("thresholds must be positive")
    t, lat, lon = trace.t, trace.lat, trace.lon
    offsets = trace.offsets.tolist()
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
            while (j < end
                   and great_circle(anchor_lat, anchor_lon, lats[j], lons[j]) <= d_threshold):
                j += 1
            if ts[j - 1] - ts[i] > t_threshold:
                first.append(a + i)
                last.append(a + j - 1)
                clat.append(left_sum(lats[i:j]) / (j - i))
                clon.append(left_sum(lons[i:j]) / (j - i))
                resume = j
    return (np.array(first, dtype=np.int64), np.array(last, dtype=np.int64),
            np.array(clat, dtype=np.float64), np.array(clon, dtype=np.float64))


def _taxi_of(trace: Trace, rows: np.ndarray) -> np.ndarray:
    """The taxi code of each of the rows."""
    return np.searchsorted(trace.offsets, rows, side="right") - 1


def extract_trips(trace: Trace, brk: np.ndarray, first: np.ndarray,
                  last: np.ndarray) -> TripTable:
    """The trips between consecutive stops (rows ``first`` to ``last`` each, as
    ``detect_stops`` gives them): a trip leaves a stop's last row for the next
    stop's first row when both stops lie in one trajectory of ``brk``. Its
    length is the ``great_circle`` between the two rows. The table lists only
    the taxis with a trip."""
    trajectory = np.searchsorted(np.flatnonzero(brk), first)
    same = trajectory[1:] == trajectory[:-1]
    depart, arrive = last[:-1][same], first[1:][same]
    t, lat, lon = trace.t, trace.lat, trace.lon
    dlat, dlon, alat, alon = lat[depart], lon[depart], lat[arrive], lon[arrive]
    length = np.fromiter(map(great_circle, dlat.tolist(), dlon.tolist(), alat.tolist(),
                             alon.tolist()), np.float64, len(depart))
    return TripTable(*compact_codes(trace.taxi_ids, _taxi_of(trace, depart)),
                     t[depart], dlat, dlon, t[arrive], alat, alon, length,
                     t[arrive] - t[depart])


def stops_and_trips(trace: Trace,
                    delta_t: float = DEFAULT_SEGMENT_GAP_S,
                    d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                    t_threshold: float = DEFAULT_STOP_DURATION_S,
                    ) -> tuple[StopTable, TripTable]:
    """Every taxi's stops and trips as columns: ``segment``, ``detect_stops``
    and ``extract_trips`` in turn."""
    brk = segment(trace, delta_t)
    first, last, clat, clon = detect_stops(trace, brk, d_threshold, t_threshold)
    stops = StopTable(trace.taxi_ids, _taxi_of(trace, first), trace.t[first], trace.t[last],
                      clat, clon)
    return stops, extract_trips(trace, brk, first, last)


def write_trips(trips: TripTable, fh: IO[str]) -> None:
    """One ``taxi_id;depart t;lat;lon;arrive t;lat;lon;length_m;duration_s``
    line per trip."""
    write_rows(fh, [(trips.taxi_ids, trips.taxi), *trips.columns()])


def load_trips(fh: IO[str]) -> TripTable:
    """A trips file as a ``TripTable``, read by ``read_columns``: a taxi id
    and 8 numbers, each as float() parses it, per line."""
    codes = TaxiCodes()
    taxi, *columns = read_columns(fh, "trip", [codes] + [FLOAT_FIELD] * len(TRIP_COLUMNS))
    return TripTable(*codes.ranked(taxi), *columns)


def write_stops(stops: StopTable, fh: IO[str]) -> None:
    write_rows(fh, [(stops.taxi_ids, stops.taxi), stops.dwell_start, stops.dwell_end,
                    stops.centroid_lat, stops.centroid_lon])


def load_stay_times(fh: IO[str]) -> np.ndarray:
    """Dwell durations (seconds, end minus start) from a stops file, read by
    ``read_columns``: a taxi id and 4 numbers, each as float() parses it,
    per line."""
    _, start, end, _, _ = read_columns(fh, "stop", [(str, object)] + [FLOAT_FIELD] * 4)
    return end - start
