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

from .columns import FLOAT_FIELD, TaxiCodes, compact_codes, read_columns, write_rows
from .ingest import Trace

EARTH_RADIUS_M = 6_371_000.0

DEFAULT_SEGMENT_GAP_S = 1800.0
DEFAULT_STOP_DISTANCE_M = 50.0
DEFAULT_STOP_DURATION_S = 360.0

# numpy's sin/cos/arcsin may differ from math's in the last bits, so a numpy
# distance decides a step only beyond this relative margin from the threshold;
# near the antipode arcsin's slope is unbounded and no relative margin holds,
# so from a threshold of 3 Earth radii on the margin is infinite
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


def _haversine(lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray,
               lon2: np.ndarray) -> np.ndarray:
    """The great-circle distance in numpy, which may differ from
    ``great_circle``'s in the last bits; a NaN coordinate gives NaN."""
    with np.errstate(invalid="ignore"):
        a = (np.sin(np.radians(lat2 - lat1) / 2.0) ** 2
             + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2))
             * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
        return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def detect_stops(trace: Trace, brk: np.ndarray,
                 d_threshold: float = DEFAULT_STOP_DISTANCE_M,
                 t_threshold: float = DEFAULT_STOP_DURATION_S) -> tuple[np.ndarray, ...]:
    """Non-overlapping stops within each trajectory (``brk`` is ``segment``'s),
    scanning left to right: each stop's first row, last row, centroid lat and
    centroid lon, in row order.

    From each candidate anchor the window extends while points stay within
    d_threshold of the anchor (by ``great_circle``); the window is a stop when
    its elapsed time exceeds t_threshold (strict) and the next point of its
    trajectory, if any, lies beyond d_threshold. After a stop, scanning
    resumes at that next point; after a failed window the anchor advances by
    one point. The centroid is the members' mean, summed left to right.

    An anchor whose next step leaves its trajectory or is surely beyond
    d_threshold has a one-point window, which is no stop, so only the other
    anchors are candidates. The trajectories are scanned in lockstep, one lane
    each, until every lane reaches its trajectory's end: a round measures
    every lane's next step in numpy, and a distance within ``_GUARD`` of
    d_threshold goes to ``great_circle``. From 3 Earth radii on the margin is
    infinite and every distance goes there. So the scan measures the same
    (anchor, point) pairs as a scalar scan would, each decided as
    ``great_circle`` decides it.
    """
    if d_threshold <= 0 or t_threshold <= 0:
        raise ValueError("thresholds must be positive")
    if d_threshold < 3.0 * EARTH_RADIUS_M:
        near, far = d_threshold * (1.0 - _GUARD), d_threshold * (1.0 + _GUARD)
    else:
        near, far = -math.inf, math.inf
    t, lat, lon = trace.t, trace.lat, trace.lon
    far_steps = _haversine(lat[:-1], lon[:-1], lat[1:], lon[1:]) > far
    candidates = np.flatnonzero(~(brk | far_steps))
    anchors = np.append(candidates, len(t))  # the last, past every row, ends every lane
    cuts = np.append(np.flatnonzero(brk) + 1, len(t))
    trajectory = np.searchsorted(cuts, candidates, side="right")
    # each lane: its anchor (an index into anchors), probe row and trajectory end
    k = np.flatnonzero(np.diff(trajectory, prepend=-1))
    j, end = candidates[k] + 1, cuts[trajectory[k]]
    no_stop = np.zeros(0, dtype=np.int64)
    firsts, lasts = [no_stop], [no_stop]
    while len(k):
        i = anchors[k]
        dist = _haversine(lat[i], lon[i], lat[j], lon[j])
        inside = dist <= near
        band = np.flatnonzero(~inside & ~(dist > far))  # a NaN distance too
        if len(band):
            inside[band] = [great_circle(*step) <= d_threshold for step in zip(
                lat[i[band]].tolist(), lon[i[band]].tolist(), lat[j[band]].tolist(),
                lon[j[band]].tolist())]
        j += inside
        closed = np.flatnonzero(~inside | (j == end))
        if len(closed) == 0:
            continue
        i, probe = i[closed], j[closed]
        stop = t[probe - 1] - t[i] > t_threshold
        firsts.append(i[stop])
        lasts.append(probe[stop] - 1)
        k[closed] = np.where(stop, np.searchsorted(anchors, probe), k[closed] + 1)
        j[closed] = anchors[k[closed]] + 1
        live = anchors[k] < end
        if not live.all():
            k, j, end = k[live], j[live], end[live]
    first = np.concatenate(firsts)
    order = np.argsort(first)
    first, last = first[order], np.concatenate(lasts)[order]
    return first, last, *_left_means(lat, lon, first, last)


def _left_means(lat: np.ndarray, lon: np.ndarray, first: np.ndarray,
                last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean lat and lon of rows first[s]..last[s] for each stop s, each
    summed left to right from 0.0, one rounding per addition as ``left_sum``
    sums: position p of every stop longer than p is added in one step."""
    size = last - first + 1
    order = np.argsort(-size, kind="stable")  # longest first: open stops are a prefix
    start, size = first[order], size[order]
    open_at = np.searchsorted(-size, -np.arange(size.max(initial=0)), side="left")
    sum_lat, sum_lon = np.zeros(len(size)), np.zeros(len(size))
    for p, m in enumerate(open_at.tolist()):
        rows = start[:m] + p
        sum_lat[:m] += lat[rows]
        sum_lon[:m] += lon[rows]
    mean_lat, mean_lon = np.empty(len(size)), np.empty(len(size))
    mean_lat[order], mean_lon[order] = sum_lat / size, sum_lon / size
    return mean_lat, mean_lon


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
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf, as float subtraction gives
        return end - start
