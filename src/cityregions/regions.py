"""Visit-density quad-tree partition of a city, plus event mapping onto regions.

A node splits into four equal quadrants (NW, NE, SW, SE) whenever it holds
more than ``threshold_fraction`` of all visits, up to a depth cap that guards
against coincident points. Leaves get consecutive region ids in depth-first
NW, NE, SW, SE order.

Cell membership is half-open: a point on an interior split line belongs to
the cell north/east of the line; the outer north/east edges of the root are
closed so the tiling is total over the closed root box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .ingest import (FLOAT_FIELD, INT_FIELD, CityBounds, GridCounts, TaxiCodes, compact_codes,
                     read_columns, write_rows)
from .trajectory import TripTable

DEFAULT_THRESHOLD_FRACTION = 0.01
DEFAULT_DEPTH_CAP = 16

VISIT = "visit"
DEPARTURE = "departure"


class OutOfBoundsError(ValueError):
    """Point lies outside the quad-tree root bounds."""


@dataclass(frozen=True, eq=False)
class LeafTable:
    """A quad-tree's leaves as columns, one row per leaf in region-id order
    as built (depth-first NW, NE, SW, SE): an int64 ``region``, the float64
    bounds of its box and its int64 ``visit_count``."""

    region: np.ndarray
    lat_min: np.ndarray
    lat_max: np.ndarray
    lon_min: np.ndarray
    lon_max: np.ndarray
    visit_count: np.ndarray

    def columns(self) -> list[np.ndarray]:
        """The columns in the field order of a tree file line."""
        return [self.region, self.lat_min, self.lat_max, self.lon_min, self.lon_max,
                self.visit_count]


@dataclass(frozen=True, eq=False)
class QuadTree:
    """A built quad-tree: the root box, a ``split`` flag per node in preorder
    (a split node, then its NW, NE, SW and SE subtrees) and the leaves."""

    bounds: CityBounds
    split: np.ndarray
    leaves: LeafTable


def _as_coord_arrays(events: object) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(events, dtype=float)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("events must be a sequence of (lat, lon) pairs")
    return arr[:, 0], arr[:, 1]


def _preorder(bounds: CityBounds, lat: np.ndarray, lon: np.ndarray, rows: np.ndarray,
              split: Callable[[int, int], bool]) -> tuple[list[bool], list[tuple], list]:
    """The split flag of each node in preorder from the root box, which holds
    points ``rows``, and the box and rows of each leaf. A node of ``n`` points
    at ``depth`` splits when ``split(n, depth)`` and its midpoints lie strictly
    inside its box (one too small to halve is a leaf); a point on a split line
    goes north/east."""
    flags, boxes, leaf_rows = [], [], []
    stack = [((bounds.lat_min, bounds.lat_max, bounds.lon_min, bounds.lon_max), rows, 0)]
    while stack:
        box, rows, depth = stack.pop()
        south, north, west, east = box
        mlat, mlon = (south + north) / 2.0, (west + east) / 2.0
        flag = split(len(rows), depth) and south < mlat < north and west < mlon < east
        flags.append(flag)
        if not flag:
            boxes.append(box)
            leaf_rows.append(rows)
            continue
        quadrant = (lat[rows] < mlat).view(np.int8) * 2 + (lon[rows] >= mlon)  # NW 0 .. SE 3
        children = [(mlat, north, west, mlon), (mlat, north, mlon, east),
                    (south, mlat, west, mlon), (south, mlat, mlon, east)]
        stack += [(children[q], rows[quadrant == q], depth + 1) for q in (3, 2, 1, 0)]
    return flags, boxes, leaf_rows


def build_quadtree(events: Sequence[tuple[float, float]] | np.ndarray,
                   bounds: CityBounds,
                   threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
                   depth_cap: int = DEFAULT_DEPTH_CAP) -> QuadTree:
    """Split the city box until no leaf exceeds the visit threshold.

    The split condition is strict: a node divides only when its count is
    greater than threshold_fraction times the total event count. Nodes at
    depth_cap never split, so coincident points cannot split forever; nor
    does a node too small to halve.
    """
    if not (0.0 < threshold_fraction <= 1.0):
        raise ValueError("threshold_fraction must be in (0, 1]")
    if depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")
    lats, lons = _as_coord_arrays(events)
    total = lats.size
    n_out = int(total - bounds.contains(lats, lons).sum())
    if n_out:
        raise OutOfBoundsError(f"{n_out} event(s) outside {bounds}")
    limit = threshold_fraction * total
    flags, boxes, rows = _preorder(bounds, lats, lons, np.arange(total),
                                   lambda n, depth: n > limit and depth < depth_cap)
    box = np.array(boxes, dtype=np.float64).T.copy()  # four contiguous bound columns
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    return QuadTree(bounds, np.array(flags, dtype=bool),
                    LeafTable(np.arange(len(rows), dtype=np.int64), *box, counts))


def locate(tree: QuadTree, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Region id of the leaf containing each point; -1 outside the closed root box.

    The points take the walk build_quadtree took, its split flags replayed.
    """
    flags = iter(tree.split.tolist())
    _, _, rows = _preorder(tree.bounds, lat, lon, np.flatnonzero(tree.bounds.contains(lat, lon)),
                           lambda n, depth: next(flags))
    region = np.full(len(lat), -1, dtype=np.int64)
    region[np.concatenate(rows)] = np.repeat(tree.leaves.region, list(map(len, rows)))
    return region


def trips_to_events(trips: TripTable, tree: QuadTree) -> tuple["EventTable", int]:
    """One departure event per trip origin and one visit event per destination,
    in trip order, as an EventTable listing the taxis with an event.

    Endpoints outside the root bounds are skipped; the second return value
    counts them.
    """
    # row 2k is trip k's departure, row 2k + 1 its arrival
    t, lat, lon = (np.column_stack(pair).ravel() for pair in (
        (trips.depart_t, trips.arrive_t), (trips.depart_lat, trips.arrive_lat),
        (trips.depart_lon, trips.arrive_lon)))
    region = locate(tree, lat, lon)
    inside = region >= 0
    taxi_ids, taxi = compact_codes(trips.taxi_ids, np.repeat(trips.taxi, 2)[inside])
    visit = np.tile([False, True], len(trips))[inside]
    return (EventTable(taxi_ids, taxi, region[inside], t[inside], visit),
            int(len(inside) - inside.sum()))


def grid_visit_counts(events: Sequence[tuple[float, float]] | np.ndarray,
                      bounds: CityBounds, rows: int, cols: int) -> GridCounts:
    """Uniform rows x cols histogram with the same edge rule as locate."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    lats, lons = _as_coord_arrays(events)
    counts = np.zeros(rows * cols, dtype=np.int64)
    if lats.size:
        inside = bounds.contains(lats, lons)
        la, lo = lats[inside], lons[inside]
        r = np.floor((la - bounds.lat_min) / (bounds.lat_max - bounds.lat_min) * rows)
        c = np.floor((lo - bounds.lon_min) / (bounds.lon_max - bounds.lon_min) * cols)
        r = np.clip(r.astype(np.int64), 0, rows - 1)
        c = np.clip(c.astype(np.int64), 0, cols - 1)
        np.add.at(counts, r * cols + c, 1)
    return GridCounts(bounds=bounds, rows=rows, cols=cols,
                      counts=tuple(int(x) for x in counts))


def write_tree(tree: QuadTree, fh: IO[str]) -> None:
    """One ``region_id;lat_min;lat_max;lon_min;lon_max;visits`` line per leaf."""
    write_rows(fh, tree.leaves.columns())


def load_tree(fh: IO[str]) -> LeafTable:
    """The leaves of a tree file, in file order (region-id order as written),
    read by ``read_columns``: a region id, 4 bounds and a visit count per
    line, the ints as int() parses them into int64, the bounds as float().
    A box that is empty, inverted or NaN is refused as ``CityBounds``
    refuses it."""
    region, *box, count = read_columns(fh, "leaf", [INT_FIELD] + [FLOAT_FIELD] * 4 + [INT_FIELD])
    if not len(region):
        raise ValueError("empty tree file")
    bad = np.flatnonzero(~((box[0] < box[1]) & (box[2] < box[3])))
    if len(bad):
        CityBounds(*(float(column[bad[0]]) for column in box))  # raises its ValueError
    return LeafTable(region, *box, count)


def write_events(events: EventTable, fh: IO[str]) -> None:
    """One ``taxi_id;region_id;timestamp;kind`` line per event."""
    write_rows(fh, [(events.taxi_ids, events.taxi), events.region, events.t,
                    ((DEPARTURE, VISIT), events.visit.astype(np.int8))])


def _kind(text: str) -> bool:
    """True for a visit, False for a departure (two ``==``: faster than ``in``)."""
    if text == VISIT:
        return True
    if text != DEPARTURE:
        raise ValueError(f"kind must be {VISIT!r} or {DEPARTURE!r}")
    return False


@dataclass(frozen=True, eq=False)
class EventTable:
    """Visit/departure events as columns, in input order.

    Row i is taxi ``taxi_ids[taxi[i]]`` (``taxi_ids`` ascending, so code order
    is id order; it may list taxis with no row) entering (``visit[i]``) or
    leaving region ``region[i]`` at ``t[i]``; region ids are int64. The
    functions and dtn stages take events in this form only.
    """

    taxi_ids: tuple[str, ...]
    taxi: np.ndarray
    region: np.ndarray
    t: np.ndarray
    visit: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def select(self, rows) -> "EventTable":
        """The rows a boolean mask, index array or slice picks, in that order;
        the table itself for a mask that keeps every row."""
        if (isinstance(rows, np.ndarray) and rows.dtype == bool
                and rows.shape == self.t.shape and rows.all()):
            return self
        return EventTable(self.taxi_ids, self.taxi[rows], self.region[rows],
                          self.t[rows], self.visit[rows])

    def present_taxi_codes(self) -> list[int]:
        """The codes of the taxis with at least one row, ascending."""
        return np.flatnonzero(np.bincount(self.taxi, minlength=len(self.taxi_ids))).tolist()

    def present_taxi_ids(self) -> list[str]:
        """The ids of the taxis with at least one row, ascending."""
        return [self.taxi_ids[k] for k in self.present_taxi_codes()]


def load_events(fh: IO[str]) -> EventTable:
    """An events file as an ``EventTable``, read by ``read_columns``: a taxi
    id, a region id (int() into int64), a timestamp (float()) and a kind per
    line."""
    codes = TaxiCodes()
    taxi, region, t, visit = read_columns(fh, "event",
                                          [codes, INT_FIELD, FLOAT_FIELD, (_kind, bool)])
    return EventTable(*codes.ranked(taxi), region, t, visit)
