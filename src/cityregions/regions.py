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

import itertools
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .ingest import CityBounds, GridCounts, format_number
from .trajectory import Trip

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
        inside = ((lats >= bounds.lat_min) & (lats <= bounds.lat_max)
                  & (lons >= bounds.lon_min) & (lons <= bounds.lon_max))
        n_out = int(total - inside.sum())
        if n_out:
            raise OutOfBoundsError(f"{n_out} event(s) outside {bounds}")
    limit = threshold_fraction * total

    def build(b: CityBounds, la: np.ndarray, lo: np.ndarray, depth: int) -> QuadNode:
        node = QuadNode(bounds=b, visit_count=int(la.size))
        if la.size > limit and depth < depth_cap:
            mlat = (b.lat_min + b.lat_max) / 2.0
            mlon = (b.lon_min + b.lon_max) / 2.0
            north = la >= mlat
            east = lo >= mlon
            quads = (
                (CityBounds(mlat, b.lat_max, b.lon_min, mlon), north & ~east),   # NW
                (CityBounds(mlat, b.lat_max, mlon, b.lon_max), north & east),    # NE
                (CityBounds(b.lat_min, mlat, b.lon_min, mlon), ~north & ~east),  # SW
                (CityBounds(b.lat_min, mlat, mlon, b.lon_max), ~north & east),   # SE
            )
            node.children = tuple(build(cb, la[m], lo[m], depth + 1)
                                  for cb, m in quads)
        return node

    root = build(bounds, lats, lons, 0)
    for region_id, leaf in enumerate(leaves(root)):
        leaf.region_id = region_id
    return root


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


def locate(tree: QuadNode, lat: float, lon: float) -> int:
    """Region id of the unique leaf containing (lat, lon)."""
    b = tree.bounds
    if not b.contains(lat, lon):
        raise OutOfBoundsError(f"point ({lat}, {lon}) outside {b}")
    node = tree
    while not node.is_leaf:
        nb = node.bounds
        north = lat >= (nb.lat_min + nb.lat_max) / 2.0
        east = lon >= (nb.lon_min + nb.lon_max) / 2.0
        node = node.children[(0 if not east else 1) if north else (2 if not east else 3)]
    return node.region_id


def trips_to_events(trips: Sequence[Trip], tree: QuadNode) -> tuple[list[VisitEvent], int]:
    """One departure event per trip origin and one visit event per destination.

    Endpoints outside the root bounds are skipped; the second return value
    counts them.
    """
    events: list[VisitEvent] = []
    dropped = 0
    for trip in trips:
        try:
            rid = locate(tree, trip.depart.lat, trip.depart.lon)
        except OutOfBoundsError:
            dropped += 1
        else:
            events.append(VisitEvent(trip.taxi_id, rid, trip.depart.timestamp, DEPARTURE))
        try:
            rid = locate(tree, trip.arrive.lat, trip.arrive.lon)
        except OutOfBoundsError:
            dropped += 1
        else:
            events.append(VisitEvent(trip.taxi_id, rid, trip.arrive.timestamp, VISIT))
    return events, dropped


def grid_visit_counts(events: Sequence[tuple[float, float]] | np.ndarray,
                      bounds: CityBounds, rows: int, cols: int) -> GridCounts:
    """Uniform rows x cols histogram with the same edge rule as locate."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    lats, lons = _as_coord_arrays(events)
    counts = np.zeros(rows * cols, dtype=np.int64)
    if lats.size:
        inside = ((lats >= bounds.lat_min) & (lats <= bounds.lat_max)
                  & (lons >= bounds.lon_min) & (lons <= bounds.lon_max))
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


def event_line(e: VisitEvent) -> str:
    return f"{e.taxi_id};{e.region_id};{format_number(e.timestamp)};{e.kind}"


def write_events(events: Iterable[VisitEvent], fh: IO[str]) -> None:
    for e in events:
        fh.write(event_line(e) + "\n")


def _event(line: str) -> VisitEvent | None:
    """One line of an events file; None for a blank line."""
    line = line.strip()
    if not line:
        return None
    f = line.split(";")
    if len(f) != 4:
        raise ValueError(f"expected 4 event fields, got {len(f)}")
    return VisitEvent(f[0], int(f[1]), float(f[2]), f[3])


@dataclass(frozen=True, eq=False)
class EventTable(Sequence[VisitEvent]):
    """Visit/departure events as columns, in input order.

    Row i is taxi ``taxi_ids[taxi[i]]`` (``taxi_ids`` ascending, so code order
    is id order; it may list taxis with no row) entering (``visit[i]``) or
    leaving region ``region[i]`` at ``t[i]``. Indexing and iteration give the
    rows as VisitEvent objects; region ids are int64.
    """

    taxi_ids: tuple[str, ...]
    taxi: np.ndarray
    region: np.ndarray
    t: np.ndarray
    visit: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.select(i)
        return VisitEvent(self.taxi_ids[self.taxi[i]], int(self.region[i]),
                          float(self.t[i]), VISIT if self.visit[i] else DEPARTURE)

    def __iter__(self) -> Iterator[VisitEvent]:
        ids = self.taxi_ids
        for code, region, t, visit in zip(self.taxi.tolist(), self.region.tolist(),
                                          self.t.tolist(), self.visit.tolist()):
            yield VisitEvent(ids[code], region, t, VISIT if visit else DEPARTURE)

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


def event_table(events: Iterable[VisitEvent]) -> EventTable:
    """``events`` itself if it is an EventTable, else its rows as one."""
    if isinstance(events, EventTable):
        return events
    ids, region_ids, times, visits = [], [], [], []
    for e in events:
        ids.append(e.taxi_id)
        region_ids.append(e.region_id)
        times.append(e.timestamp)
        visits.append(e.kind == VISIT)
    codes = _Codes()
    taxi = codes.encode(ids)
    return codes.table(taxi, np.array(region_ids, dtype=np.int64),
                       np.array(times, dtype=np.float64), np.array(visits, dtype=bool))


class _Codes:
    """Taxi codes in first-seen order, renumbered into id order at the end."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}

    def encode(self, ids: Sequence[str]) -> np.ndarray:
        index = self.index
        for tid in set(ids).difference(index):
            index[tid] = len(index)
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))

    def table(self, taxi, region, t, visit) -> EventTable:
        taxi_ids = sorted(self.index)
        rank = np.empty(len(taxi_ids), dtype=np.int64)
        rank[[self.index[tid] for tid in taxi_ids]] = np.arange(len(taxi_ids))
        return EventTable(tuple(taxi_ids), rank[taxi], region, t, visit)


def load_events(fh: IO[str]) -> EventTable:
    """Read an events file into columns, a chunk of lines at a time.

    Blank lines are skipped and lines stripped; numbers parse with int() and
    float() as one VisitEvent per line would, and a malformed line raises
    the error reading it as one VisitEvent raises. Region ids must fit in
    int64.
    """
    codes = _Codes()
    columns: tuple[list, ...] = ([], [], [], [])
    while chunk := fh.readlines(1 << 20):
        lines = [s for s in map(str.strip, chunk) if s]
        n = len(lines)
        if not n:
            continue
        try:
            if set(map(str.count, lines, itertools.repeat(";", n))) - {3}:
                raise ValueError("a line without 4 fields")
            fields = ";".join(lines).split(";")
            kinds = fields[3::4]
            if set(kinds) - {VISIT, DEPARTURE}:
                raise ValueError("a line of unknown kind")
            parts = (codes.encode(fields[0::4]),
                     np.fromiter(map(int, fields[1::4]), np.int64, n),
                     np.fromiter(map(float, fields[2::4]), np.float64, n),
                     np.fromiter(map(VISIT.__eq__, kinds), bool, n))
        except (ValueError, OverflowError):
            for line in lines:
                _event(line)  # raises the first malformed line's own error
            raise
        for column, part in zip(columns, parts):
            column.append(part)
    taxi, region, t, visit = (np.concatenate(c) if c else np.empty(0, dtype)
                              for c, dtype in zip(columns, (np.int64, np.int64,
                                                            np.float64, bool)))
    return codes.table(taxi, region, t, visit)
