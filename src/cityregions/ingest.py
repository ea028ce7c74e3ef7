"""Parse heterogeneous taxi trace files into a columnar, per-taxi sorted trace.

Supported input layouts:

* ``canonical``      -- ``taxi_id;timestamp;lat;lon[;occupancy]`` with UTC epoch seconds
* ``rome``           -- ``id;YYYY-MM-DD HH:MM:SS.ffffff+TZ;POINT(lat lon)``
* ``sanfrancisco``   -- ``lat lon occupancy epoch`` (one file per cab, id supplied by caller)
* ``beijing``        -- ``id,YYYY-MM-DD HH:MM:SS,lon,lat`` (naive local time, offset supplied)

All adapters normalize timestamps to UTC epoch seconds. Occupancy flags, where
present, ride along as optional metadata and play no role downstream. One
reader serves every layout and fills a ``Trace``: float64 columns plus a taxi
id table, instead of one Python object per fix.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import IO, Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class GpsPoint:
    """One timestamped position of one taxi (timestamp = UTC epoch seconds)."""

    taxi_id: str
    timestamp: float
    lat: float
    lon: float
    occupied: bool | None = None


@dataclass(frozen=True)
class CityBounds:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError(f"invalid bounds: {self}")

    def contains(self, lat, lon):
        """Closed-interval containment on all four edges.

        Takes scalars (returns a bool) or numpy arrays (returns a bool mask).
        """
        return ((self.lat_min <= lat) & (lat <= self.lat_max)
                & (self.lon_min <= lon) & (lon <= self.lon_max))


@dataclass(frozen=True)
class GridCounts:
    """Row-major uniform-grid cell counts; row 0 is the southernmost band."""

    bounds: CityBounds
    rows: int
    cols: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if len(self.counts) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")


@dataclass
class ParseReport:
    """Per-line accounting: every input line is accepted, deduplicated or rejected."""

    total_lines: int = 0
    accepted: int = 0
    deduplicated: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return len(self.rejects)


@dataclass(frozen=True, eq=False)
class Trace:
    """Fixes as columns, sorted by (taxi id, timestamp) with no repeated pair.

    Taxi ``taxi_ids[k]`` (ascending) owns rows ``offsets[k]:offsets[k + 1]``;
    every listed taxi owns at least one row. ``occupied`` is None when no fix
    carries a flag; otherwise it holds 1/0 per fix and -1 where a fix has
    none. Every stage takes and hands on a trace in this form only.
    """

    taxi_ids: tuple[str, ...]
    offsets: np.ndarray
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    occupied: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)

    def row_taxi_ids(self) -> list[str]:
        """The taxi id of every row."""
        counts = np.diff(self.offsets).tolist()
        return [tid for tid, n in zip(self.taxi_ids, counts) for _ in range(n)]

    def row_occupied(self) -> list[bool | None]:
        if self.occupied is None:
            return [None] * len(self)
        return [None if o < 0 else o == 1 for o in self.occupied.tolist()]

    def select(self, mask: np.ndarray) -> Trace:
        """The rows where ``mask`` is true, in order."""
        offsets = np.concatenate(([0], np.cumsum(mask)))[self.offsets]
        nonempty = np.diff(offsets) > 0
        return Trace(tuple(itertools.compress(self.taxi_ids, nonempty.tolist())),
                     np.append(offsets[:-1][nonempty], offsets[-1]),
                     self.t[mask], self.lat[mask], self.lon[mask],
                     None if self.occupied is None else self.occupied[mask])


FORMATS = ("canonical", "rome", "sanfrancisco", "beijing")

_ROME_TZ_RE = re.compile(r"([+-]\d{2})(:?\d{2})?$")
_ROME_FRAC_RE = re.compile(r"\.(\d+)")
_BEIJING_HOUR_RE = re.compile(r"(\d{4}-\d\d-\d\d) ([01]\d|2[0-3])", re.ASCII)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

# A parsed line: taxi id, timestamp, lat, lon, occupancy (1, 0, or -1 for none)
_Row = tuple[str, float, float, float, int]


def _check_point(taxi_id: str, ts: float, lat: float, lon: float) -> str | None:
    """Return a rejection reason for an out-of-validity point, else None."""
    if not math.isfinite(ts) or ts < 0:
        return f"timestamp out of range: {ts}"
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        return f"latitude out of range: {lat}"
    if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
        return f"longitude out of range: {lon}"
    if not taxi_id:
        return "empty taxi id"
    if ";" in taxi_id:  # it would split a canonical trace.txt line
        return f"taxi id holds ';': {taxi_id!r}"
    return None


@functools.cache
def _minute_second_us() -> dict[str, int]:
    """':MM:SS' -> microseconds into the hour, for every valid minute and second."""
    return {f":{m:02d}:{s:02d}": (m * 60 + s) * 1_000_000
            for m in range(60) for s in range(60)}


@dataclass
class _AdapterContext:
    taxi_id: str | None
    utc_offset_hours: float
    # 'YYYY-MM-DD HH' -> start of that local hour as UTC epoch microseconds
    hours: dict[str, int] = field(default_factory=dict)
    # 'YYYY-MM-DD' -> local midnight as UTC epoch microseconds
    days: dict[str, int] = field(default_factory=dict)
    minute_second: dict[str, int] = field(default_factory=_minute_second_us)

    def beijing_epoch(self, stamp: str) -> float:
        """UTC epoch seconds of a naive local stamp, as strptime + fixed offset.

        A zero-padded, in-range stamp is split at the hour: each distinct date
        goes through strptime once, and the time is added in whole
        microseconds and divided once, as ``datetime.timestamp()`` divides,
        so the result is bit-identical. Any other text goes through strptime,
        whose accept/reject decision and message stand.
        """
        hour = self.hours.get(stamp[:13])
        if hour is None:
            hour = self._hour_start(stamp[:13])
        minute_second = self.minute_second.get(stamp[13:])
        if hour is not None and minute_second is not None:
            return (hour + minute_second) / 1_000_000
        local = datetime.strptime(stamp, "%Y-%m-%d %H:%M:%S")
        tz = timezone(timedelta(hours=self.utc_offset_hours))
        return local.replace(tzinfo=tz).timestamp()

    def _hour_start(self, key: str) -> int | None:
        m = _BEIJING_HOUR_RE.fullmatch(key)
        if m is None:
            return None
        midnight = self.days.get(m[1])
        if midnight is None:
            try:
                local = datetime.strptime(m[1], "%Y-%m-%d")
            except ValueError:
                return None
            tz = timezone(timedelta(hours=self.utc_offset_hours))
            midnight = self.days[m[1]] = (local.replace(tzinfo=tz) - _EPOCH) // _MICROSECOND
        hour = self.hours[key] = midnight + int(m[2]) * 3_600_000_000
        return hour


def _parse_canonical(line: str, ctx: _AdapterContext) -> _Row:
    parts = line.split(";")
    if len(parts) == 4:
        return parts[0].strip(), float(parts[1]), float(parts[2]), float(parts[3]), -1
    if len(parts) != 5:
        raise ValueError(f"expected 4 or 5 ';'-separated fields, got {len(parts)}")
    if parts[4] not in ("0", "1"):
        raise ValueError(f"bad occupancy flag: {parts[4]!r}")
    return (parts[0].strip(), float(parts[1]), float(parts[2]), float(parts[3]),
            int(parts[4]))


def _parse_rome_timestamp(text: str) -> float:
    """Rome timestamps carry an explicit UTC offset, sometimes hour-only ('+01')."""
    text = text.strip()
    m = _ROME_TZ_RE.search(text)
    if m and m.group(2) is None:
        text = text + ":00"
    # fromisoformat on 3.10 wants exactly 6 fractional digits
    frac = _ROME_FRAC_RE.search(text)
    if frac:
        digits = frac.group(1)[:6].ljust(6, "0")
        text = text[:frac.start()] + "." + digits + text[frac.end():]
    return datetime.fromisoformat(text).timestamp()


def _parse_rome(line: str, ctx: _AdapterContext) -> _Row:
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
    return parts[0].strip(), ts, float(coords[0]), float(coords[1]), -1


def _parse_sanfrancisco(line: str, ctx: _AdapterContext) -> _Row:
    parts = line.split()
    if len(parts) != 4:
        raise ValueError(f"expected 4 space-separated fields, got {len(parts)}")
    if parts[2] not in ("0", "1"):
        raise ValueError(f"bad occupancy flag: {parts[2]!r}")
    return ctx.taxi_id, float(parts[3]), float(parts[0]), float(parts[1]), int(parts[2])


def _parse_beijing(line: str, ctx: _AdapterContext) -> _Row:
    parts = line.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 ','-separated fields, got {len(parts)}")
    ts = ctx.beijing_epoch(parts[1].strip())
    # T-Drive order is longitude first
    return parts[0].strip(), ts, float(parts[3]), float(parts[2]), -1


_LINE_PARSERS = {
    "canonical": _parse_canonical,
    "rome": _parse_rome,
    "sanfrancisco": _parse_sanfrancisco,
    "beijing": _parse_beijing,
}


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[str]:
    """Lines as the source iterates them; a binary stream splits on '\\n' only."""
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        text = io.TextIOWrapper(source, encoding="utf-8", errors="replace", newline="\n")
        try:
            yield from text
        finally:
            text.detach()  # leave the caller's stream open
        return
    for raw in source:
        yield raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw


def _open_trace(path: str) -> IO[str]:
    """A trace file, its lines split and decoded as ``_iter_lines`` reads bytes."""
    return open(path, encoding="utf-8", errors="replace", newline="\n")


def _sorted_unique(taxi_ids: tuple[str, ...], key: np.ndarray, t: np.ndarray,
                   lat: np.ndarray, lon: np.ndarray, occ: np.ndarray) -> tuple[Trace, int]:
    """Rows sorted by (taxi ``taxi_ids[key]``, timestamp), keeping the first row
    of each repeated pair; returns the trace and the rows dropped."""
    order = np.lexsort((t, key))  # stable, so a repeated pair keeps input order
    key, ts = key[order], t[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (ts[1:] != ts[:-1])
    order = order[first]
    occ = occ[order]
    trace = Trace(taxi_ids, np.searchsorted(key[first], np.arange(len(taxi_ids) + 1)),
                  ts[first], lat[order], lon[order], occ if (occ >= 0).any() else None)
    return trace, len(first) - len(order)


_CHUNK_ROWS = 1 << 15  # rows held as Python objects at once when reading or writing


def _columns(rows: list[_Row], linenos: list[int], codes: TaxiCodes,
             rejects: list[tuple[int, str]]) -> tuple[np.ndarray, ...]:
    """Parsed rows as (taxi code, t, lat, lon, occupancy) arrays, taxi ids
    coded through ``codes``. Rows outside ``_check_point``'s validity are
    left out, with their reasons appended to ``rejects``."""
    ids, t, lat, lon, occ = zip(*rows) if rows else ((),) * 5
    t, lat, lon = (np.array(col, dtype=np.float64) for col in (t, lat, lon))
    occ = np.array(occ, dtype=np.int8)
    valid = (np.isfinite(t) & (t >= 0) & (lat >= -90.0) & (lat <= 90.0)
             & (lon >= -180.0) & (lon <= 180.0))
    bad_ids = {tid for tid in set(ids) if not tid or ";" in tid}
    if bad_ids:
        valid &= np.array([tid not in bad_ids for tid in ids])
    if not valid.all():
        rejects.extend((linenos[i], _check_point(*rows[i][:4]))
                       for i in np.flatnonzero(~valid).tolist())
        ids = [ids[i] for i in np.flatnonzero(valid).tolist()]
        t, lat, lon, occ = t[valid], lat[valid], lon[valid], occ[valid]
    return codes.encode(ids), t, lat, lon, occ


def _read(sources: Iterable[tuple[Iterable[str], str, str | None]],
          utc_offset_hours: float) -> tuple[Trace, ParseReport]:
    """One trace from the (lines, format, taxi id) sources, read in turn: line
    numbers run on across them, and where a (taxi id, timestamp) pair recurs
    the first line read wins."""
    ctx = _AdapterContext(taxi_id=None, utc_offset_hours=utc_offset_hours)
    report = ParseReport()
    codes = TaxiCodes()
    chunks = []
    checked: list[tuple[int, str]] = []
    rows: list[_Row] = []
    linenos: list[int] = []
    lineno = 0
    for lines, fmt, taxi_id in sources:
        if fmt not in _LINE_PARSERS:
            raise ValueError(f"unknown trace format {fmt!r}; expected one of {FORMATS}")
        if fmt == "sanfrancisco" and taxi_id is None:
            raise ValueError("sanfrancisco files carry no inline taxi id; pass taxi_id=")
        parse_line = _LINE_PARSERS[fmt]
        ctx.taxi_id = taxi_id
        for lineno, line in enumerate(lines, start=lineno + 1):
            line = line.strip()
            if not line:
                report.rejects.append((lineno, "blank line"))
                continue
            try:
                rows.append(parse_line(line, ctx))
            except ValueError as exc:
                report.rejects.append((lineno, str(exc)))
                continue
            linenos.append(lineno)
            if len(rows) == _CHUNK_ROWS:
                chunks.append(_columns(rows, linenos, codes, checked))
                rows, linenos = [], []
    chunks.append(_columns(rows, linenos, codes, checked))
    report.total_lines = lineno
    if checked:
        report.rejects = sorted(report.rejects + checked)
    taxi, t, lat, lon, occ = (np.concatenate(c) for c in zip(*chunks))
    del chunks, rows, linenos  # the parsed copies go before the sort makes its own
    trace, report.deduplicated = _sorted_unique(*codes.ranked(taxi), t, lat, lon, occ)
    report.accepted = len(trace)
    return trace, report


def parse_trace(source: IO[bytes] | IO[str] | Iterable[str],
                fmt: str,
                *,
                taxi_id: str | None = None,
                utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """Parse one trace into fixes grouped by ascending taxi id and sorted by time.

    Returns the Trace plus a ParseReport. Malformed or out-of-validity lines
    land in the report's rejects with their 1-based line number; repeated
    (taxi_id, timestamp) pairs keep the first occurrence and count as
    deduplicated.
    """
    return _read([(_iter_lines(source), fmt, taxi_id)], utc_offset_hours)


def parse_trace_files(files: Iterable[tuple[str, str, str | None]],
                      utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """``parse_trace`` on the (path, format, taxi id) files read in turn as
    one source."""
    def sources():
        for path, fmt, taxi_id in files:
            with _open_trace(path) as fh:
                yield fh, fmt, taxi_id

    return _read(sources(), utc_offset_hours)


def parse_trace_file(path: str, fmt: str, *, taxi_id: str | None = None,
                     utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """``parse_trace_files`` on one file."""
    return parse_trace_files([(path, fmt, taxi_id)], utc_offset_hours)


def first_repeat(path: str) -> tuple[int, str]:
    """The first line of a canonical trace file that the reader counts as
    deduplicated, and which earlier line holds its (taxi id, timestamp)."""
    seen: dict[tuple[str, float], int] = {}
    with _open_trace(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                row = _parse_canonical(line.strip(), None)
            except ValueError:
                continue
            if _check_point(*row[:4]) is None:
                if row[:2] in seen:
                    return lineno, f"repeats the taxi id and timestamp of line {seen[row[:2]]}"
                seen[row[:2]] = lineno
    raise AssertionError("no repeated line")


def clip_to_bounds(trace: Trace, bounds: CityBounds) -> Trace:
    """The fixes inside the closed bounding box, in order."""
    return trace.select(bounds.contains(trace.lat, trace.lon))


def round_trips_canonical(taxi_id: str) -> bool:
    """Whether a taxi id reads back unchanged from a canonical line."""
    return (isinstance(taxi_id, str) and taxi_id == taxi_id.strip()
            and ";" not in taxi_id and "\n" not in taxi_id)


def format_number(x: float) -> str:
    """Integral floats print as ints; everything else as shortest round-trip repr."""
    if isinstance(x, float) and x.is_integer() and abs(x) < 2**53:
        return str(int(x))
    return repr(x)


def _format_column(x: np.ndarray) -> list[str]:
    """format_number of every value, with the integral test done on the array."""
    integral = np.isfinite(x) & (np.trunc(x) == x) & (np.abs(x) < 2**53)
    if integral.all():
        return list(map(str, x.astype(np.int64).tolist()))
    out = list(map(repr, x.tolist()))
    for i in np.flatnonzero(integral).tolist():
        out[i] = str(int(x[i]))
    return out


def write_canonical(trace: Trace, fh: IO[str]) -> None:
    """One ``taxi_id;timestamp;lat;lon[;occ]`` line per fix, in order."""
    ids, t, lat, lon, occ = (trace.row_taxi_ids(), trace.t, trace.lat, trace.lon,
                             trace.row_occupied())
    for a in range(0, len(ids), _CHUNK_ROWS):  # bounds the formatted text held at once
        b = a + _CHUNK_ROWS
        fh.writelines(f"{tid};{ts};{la};{lo}" + ("\n" if oc is None else f";{int(oc)}\n")
                      for tid, ts, la, lo, oc in zip(ids[a:b], _format_column(t[a:b]),
                                                     _format_column(lat[a:b]),
                                                     _format_column(lon[a:b]), occ[a:b]))


def write_rows(fh: IO[str], columns: Sequence[np.ndarray]) -> None:
    """One line of ';'-joined fields per row, ``_CHUNK_ROWS`` rows at a time:
    a float column as format_number prints it, any other column by str()."""
    for a in range(0, len(columns[0]), _CHUNK_ROWS):  # bounds the text held at once
        fields = [_format_column(c[a:a + _CHUNK_ROWS]) if c.dtype.kind == "f"
                  else map(str, c[a:a + _CHUNK_ROWS].tolist()) for c in columns]
        fh.writelines(";".join(row) + "\n" for row in zip(*fields))


def read_columns(fh: IO[str], dtypes: Sequence, convert, read_line) -> list[np.ndarray]:
    """The columns of a ';'-separated artifact, read a chunk of lines (about
    1 MB) at a time; one field per column.

    Lines are stripped and blank ones skipped. ``convert(fields, n)`` turns
    the fields of a chunk's n lines (field k of line i at
    ``fields[i * len(dtypes) + k]``) into one array per column. If a line has
    another field count, or convert raises ValueError or OverflowError,
    ``read_line`` reads the chunk's lines one by one, so the first bad line
    raises the error reading it alone raises.
    """
    columns: list[list[np.ndarray]] = [[] for _ in dtypes]
    while chunk := fh.readlines(1 << 20):
        lines = [s for s in map(str.strip, chunk) if s]
        n = len(lines)
        if not n:
            continue
        try:
            if set(map(str.count, lines, itertools.repeat(";", n))) - {len(dtypes) - 1}:
                raise ValueError(f"a line without {len(dtypes)} fields")
            parts = convert(";".join(lines).split(";"), n)
        except (ValueError, OverflowError):
            for line in lines:
                read_line(line)  # raises the first malformed line's own error
            raise
        for column, part in zip(columns, parts):
            column.append(part)
    return [np.concatenate(c) if c else np.empty(0, dtype) for c, dtype in zip(columns, dtypes)]


class TaxiCodes:
    """Taxi codes in first-seen order, renumbered into id order at the end."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}

    def encode(self, ids: Sequence[str]) -> np.ndarray:
        index = self.index
        for tid in set(ids).difference(index):
            index[tid] = len(index)
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))

    def ranked(self, taxi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """The ids seen, ascending, and ``taxi`` recoded into that order."""
        taxi_ids = sorted(self.index)
        rank = np.empty(len(taxi_ids), dtype=np.int64)
        rank[[self.index[tid] for tid in taxi_ids]] = np.arange(len(taxi_ids))
        return tuple(taxi_ids), rank[taxi]


def id_column(taxi_ids: Sequence[str], taxi: np.ndarray) -> np.ndarray:
    """Each row's taxi id, as an object array (a numpy string array would
    drop trailing NUL characters)."""
    return np.array(taxi_ids, dtype=object)[taxi]


def compact_codes(taxi_ids: Sequence[str],
                  taxi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids that codes ``taxi`` use, in table order, and ``taxi`` recoded into them."""
    used = np.unique(taxi)
    return tuple(taxi_ids[k] for k in used.tolist()), np.searchsorted(used, taxi)


def left_sum(values: Iterable[float]) -> float:
    """The float sum in list order, one rounding per addition.

    ``sum`` is this on Python < 3.12 and compensated from 3.12 on, so
    artifact bytes would depend on the interpreter.
    """
    return functools.reduce(operator.add, values, 0.0)


def write_rejects(report: ParseReport, fh: IO[str]) -> None:
    for lineno, reason in report.rejects:
        fh.write(f"{lineno};{reason}\n")


def write_grid_counts(grid: GridCounts, fh: IO[str]) -> None:
    b = grid.bounds
    fh.write(f"{grid.rows};{grid.cols};{format_number(b.lat_min)};"
             f"{format_number(b.lat_max)};{format_number(b.lon_min)};"
             f"{format_number(b.lon_max)}\n")
    for c in grid.counts:
        fh.write(f"{c}\n")


def load_grid_counts(fh: IO[str]) -> GridCounts:
    header = fh.readline().strip().split(";")
    if len(header) != 6:
        raise ValueError("grid header must be rows;cols;lat_min;lat_max;lon_min;lon_max")
    rows, cols = int(header[0]), int(header[1])
    bounds = CityBounds(float(header[2]), float(header[3]),
                        float(header[4]), float(header[5]))
    counts = tuple(int(line.strip()) for line in fh if line.strip())
    return GridCounts(bounds=bounds, rows=rows, cols=cols, counts=counts)
