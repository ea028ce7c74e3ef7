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
from typing import IO, Sequence

import numpy as np

from .ingest import (CityBounds, GridCounts, TaxiCodes, compact_codes, format_number,
                     id_column, read_columns, write_rows)
from .trajectory import TripTable

DEFAULT_THRESHOLD_FRACTION = 0.01
DEFAULT_DEPTH_CAP = 16

VISIT = "visit"
DEPARTURE = "departure"


class OutOfBoundsError(ValueError):
    """Point lies outside the quad-tree root bounds."""


@dataclass
class QuadNode:
    bounds: CityBounds
    visit_count: int
    children: tuple["QuadNode", "QuadNode", "QuadNode", "QuadNode"] | None = None
    region_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _as_coord_arrays(events: object) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(events, dtype=float)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("events must be a sequence of (lat, lon) pairs")
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def build_quadtree(events: Sequence[tuple[float, float]] | np.ndarray,
                   bounds: CityBounds,
                   threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
                   depth_cap: int = DEFAULT_DEPTH_CAP) -> QuadNode:
    """Recursively split the city box until no leaf exceeds the visit threshold.

    The split condition is strict: a node divides only when its count is
    greater than threshold_fraction times the total event count. Nodes at
    depth_cap never split, so coincident points cannot recurse forever.
    """
    if not (0.0 < threshold_fraction <= 1.0):
        raise ValueError("threshold_fraction must be in (0, 1]")
    if depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")
    lats, lons = _as_coord_arrays(events)
    total = lats.size
    if total:
        inside = bounds.contains(lats, lons)
        n_out = int(total - inside.sum())
        if n_out:
            raise OutOfBoundsError(f"{n_out} event(s) outside {bounds}")
    limit = threshold_fraction * total

    def build(b: CityBounds, la: np.ndarray, lo: np.ndarray, depth: int) -> QuadNode:
        node = QuadNode(bounds=b, visit_count=int(la.size))
        if la.size > limit and depth < depth_cap:
            node.children = tuple(build(cb, la[m], lo[m], depth + 1)
                                  for cb, m in _quadrants(b, la, lo))
        return node

    root = build(bounds, lats, lons, 0)
    for region_id, leaf in enumerate(leaves(root)):
        leaf.region_id = region_id
    return root


def _quadrants(b: CityBounds, lat: np.ndarray,
               lon: np.ndarray) -> list[tuple[CityBounds, np.ndarray]]:
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


def leaves(root: QuadNode) -> list[QuadNode]:
    """All leaves in region-id (depth-first NW, NE, SW, SE) order."""
    out: list[QuadNode] = []

    def walk(node: QuadNode) -> None:
        if node.is_leaf:
            out.append(node)
        else:
            for child in node.children:
                walk(child)

    walk(root)
    return out


def locate_all(tree: QuadNode, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Region id of the leaf containing each point; -1 outside the closed root box.

    The points walk down the tree a level at a time, split by the same masks
    build_quadtree splits them by.
    """
    region = np.full(len(lat), -1, dtype=np.int64)
    level = [(tree, np.flatnonzero(tree.bounds.contains(lat, lon)))]
    while level:
        below = []
        for node, rows in level:
            if node.is_leaf:
                region[rows] = node.region_id
            else:
                below += [(child, rows[m]) for child, (_, m) in
                          zip(node.children, _quadrants(node.bounds, lat[rows], lon[rows]))
                          if m.any()]
        level = below
    return region


def locate(tree: QuadNode, lat: float, lon: float) -> int:
    """Region id of the unique leaf containing (lat, lon)."""
    (region,) = locate_all(tree, np.array([lat], dtype=np.float64),
                           np.array([lon], dtype=np.float64)).tolist()
    if region < 0:
        raise OutOfBoundsError(f"point ({lat}, {lon}) outside {tree.bounds}")
    return region


def trips_to_events(trips: TripTable, tree: QuadNode) -> tuple["EventTable", int]:
    """One departure event per trip origin and one visit event per destination,
    in trip order, as an EventTable listing the taxis with an event.

    Endpoints outside the root bounds are skipped; the second return value
    counts them.
    """
    # row 2k is trip k's departure, row 2k + 1 its arrival
    t, lat, lon = (np.column_stack(pair).ravel() for pair in (
        (trips.depart_t, trips.arrive_t), (trips.depart_lat, trips.arrive_lat),
        (trips.depart_lon, trips.arrive_lon)))
    region = locate_all(tree, lat, lon)
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


def leaf_line(leaf: QuadNode) -> str:
    b = leaf.bounds
    return ";".join((str(leaf.region_id),
                     format_number(b.lat_min), format_number(b.lat_max),
                     format_number(b.lon_min), format_number(b.lon_max),
                     str(leaf.visit_count)))


def write_tree(root: QuadNode, fh: IO[str]) -> None:
    for leaf in leaves(root):
        fh.write(leaf_line(leaf) + "\n")


def load_tree(fh: IO[str]) -> list[QuadNode]:
    """The leaves of a tree file, in file order (region-id order as written)."""
    out: list[QuadNode] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != 6:
            raise ValueError(f"expected 6 leaf fields, got {len(f)}")
        out.append(QuadNode(bounds=CityBounds(float(f[1]), float(f[2]),
                                              float(f[3]), float(f[4])),
                            visit_count=int(f[5]), region_id=int(f[0])))
    if not out:
        raise ValueError("empty tree file")
    return out


def write_events(events: EventTable, fh: IO[str]) -> None:
    """One ``taxi_id;region_id;timestamp;kind`` line per event."""
    write_rows(fh, [id_column(events.taxi_ids, events.taxi), events.region, events.t,
                    np.where(events.visit, VISIT, DEPARTURE)])


def _event_fields(line: str) -> tuple[int, float, bool]:
    """The region, timestamp and visit flag of one events line, as the
    per-line reader parsed and checked them."""
    f = line.split(";")
    if len(f) != 4:
        raise ValueError(f"expected 4 event fields, got {len(f)}")
    region, t = int(f[1]), float(f[2])
    if f[3] not in (VISIT, DEPARTURE):
        raise ValueError(f"kind must be {VISIT!r} or {DEPARTURE!r}")
    return region, t, f[3] == VISIT


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
        """The rows a boolean mask, index array or slice picks, in that order."""
        return EventTable(self.taxi_ids, self.taxi[rows], self.region[rows],
                          self.t[rows], self.visit[rows])

    def present_taxi_codes(self) -> list[int]:
        """The codes of the taxis with at least one row, ascending."""
        return np.flatnonzero(np.bincount(self.taxi, minlength=len(self.taxi_ids))).tolist()

    def present_taxi_ids(self) -> list[str]:
        """The ids of the taxis with at least one row, ascending."""
        return [self.taxi_ids[k] for k in self.present_taxi_codes()]


def load_events(fh: IO[str]) -> EventTable:
    """Read an events file into columns, a chunk of lines at a time.

    Blank lines are skipped and lines stripped; numbers parse with int() and
    float(), and a malformed line raises the error reading it alone raises.
    Region ids must fit in int64.
    """
    codes = TaxiCodes()

    def convert(fields: list[str], n: int) -> list[np.ndarray]:
        kinds = fields[3::4]
        if set(kinds) - {VISIT, DEPARTURE}:
            raise ValueError("a line of unknown kind")
        return [codes.encode(fields[0::4]),
                np.fromiter(map(int, fields[1::4]), np.int64, n),
                np.fromiter(map(float, fields[2::4]), np.float64, n),
                np.fromiter(map(VISIT.__eq__, kinds), bool, n)]

    taxi, region, t, visit = read_columns(fh, (np.int64, np.int64, np.float64, bool),
                                          convert, _event_fields)
    return EventTable(*codes.ranked(taxi), region, t, visit)
