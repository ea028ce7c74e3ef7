"""Parse heterogeneous taxi trace files into a columnar, per-taxi sorted trace.

Supported input layouts:

* ``canonical``      -- ``taxi_id;timestamp;lat;lon[;occupancy]`` with UTC epoch seconds
* ``rome``           -- ``id;YYYY-MM-DD HH:MM:SS.ffffff+TZ;POINT(lat lon)``
* ``sanfrancisco``   -- ``lat lon occupancy epoch`` (one file per cab, id supplied by caller)
* ``beijing``        -- ``id,YYYY-MM-DD HH:MM:SS,lon,lat`` (naive local time, offset supplied)

All adapters normalize timestamps to UTC epoch seconds. Occupancy flags, where
present, ride along as optional metadata and play no role downstream. One
reader, ``parse_trace_files``, reads files of every layout in turn and fills
a ``Trace``: float64 columns plus a taxi id table. The ';' artifacts are read
and written by ``columns``; this module keeps the raw input layouts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .columns import (_ID_BYTES, TaxiCodes, _decimals, _split, _text_column, _write_table,
                      format_number, taxi_id_fault)


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
    # the first row deduplicated and the row it repeats, rows counted from 0
    # in read order over the lines that are no reject
    first_repeat: tuple[int, int] | None = None

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
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # 0: no month

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
    return taxi_id_fault(taxi_id)


@dataclass
class _AdapterContext:
    taxi_id: str | None
    utc_offset_hours: float


def _local_us(year, month, day, hour, minute, second, utc_offset_hours: float):
    """The UTC epoch microseconds of a local wall-clock time at a fixed
    offset, and whether ``datetime`` takes that date and time: an exact int
    for ints, int64 arrays for arrays. ``datetime.timestamp()`` of the aware
    time is this int divided once by 10**6. The days come from the civil
    date as in Hinnant's days_from_civil, on years that start in March and
    floor division; the offset is rounded as ``timedelta`` rounds it."""
    # n % m as n - n // m * m: numpy runs // by a scalar in SIMD, and % in a scalar loop
    leap = (year // 4 * 4 == year) & ((year // 100 * 100 != year) | (year // 400 * 400 == year))
    month_days = _MONTH_DAYS.take(month, mode="clip") + ((month == 2) & leap)
    ok = ((1 <= year) & (year <= 9999) & (1 <= month) & (month <= 12) & (1 <= day)
          & (day <= month_days) & (0 <= hour) & (hour < 24) & (0 <= minute) & (minute < 60)
          & (0 <= second) & (second < 60))
    y = year - (month <= 2)
    days = (y * 365 + y // 4 - y // 100 + y // 400
            + (153 * (month + 9 - (month + 9) // 12 * 12) + 2) // 5 + day - 719469)
    seconds = ((days * 24 + hour) * 60 + minute) * 60 + second
    offset_us = timedelta(hours=utc_offset_hours) // timedelta(microseconds=1)
    return seconds * 1_000_000 - offset_us, ok


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
    """Rome timestamps carry an explicit UTC offset, sometimes hour-only
    ('+01'); one without an offset is refused, as its time would depend on
    the machine's time zone."""
    text = stamp = text.strip()
    m = _ROME_TZ_RE.search(text)
    if m and m.group(2) is None:
        text = text + ":00"
    # fromisoformat on 3.10 wants exactly 6 fractional digits
    frac = _ROME_FRAC_RE.search(text)
    if frac:
        digits = frac.group(1)[:6].ljust(6, "0")
        text = text[:frac.start()] + "." + digits + text[frac.end():]
    local = datetime.fromisoformat(text)
    if local.tzinfo is None:
        raise ValueError(f"timestamp without a UTC offset: {stamp!r}")
    return local.timestamp()


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
    local = datetime.strptime(parts[1].strip(), "%Y-%m-%d %H:%M:%S").timetuple()
    ts = _local_us(*local[:6], ctx.utc_offset_hours)[0] / 1_000_000  # one exact division
    # T-Drive order is longitude first
    return parts[0].strip(), ts, float(parts[3]), float(parts[2]), -1


_LINE_PARSERS = {
    "canonical": _parse_canonical,
    "rome": _parse_rome,
    "sanfrancisco": _parse_sanfrancisco,
    "beijing": _parse_beijing,
}


def _sorted_unique(taxi_ids: tuple[str, ...], key: np.ndarray, t: np.ndarray,
                   lat: np.ndarray, lon: np.ndarray, occ: np.ndarray
                   ) -> tuple[Trace, int, tuple[int, int] | None]:
    """Rows sorted by (taxi ``taxi_ids[key]``, timestamp), keeping the first row
    of each repeated pair; returns the trace, the rows dropped, and the first
    row dropped in read order with the kept row it repeats (None if none)."""
    order = np.argsort(key, kind="stable")  # stable, so a repeated pair keeps input order
    key, ts = key[order], t[order]
    if ((ts[1:] < ts[:-1]) & (key[1:] == key[:-1])).any():  # some taxi's time goes back
        by_time = np.lexsort((ts, key))  # also stable
        order, key, ts = order[by_time], key[by_time], ts[by_time]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (ts[1:] != ts[:-1])
    repeat = None
    if not first.all():
        dropped = np.flatnonzero(~first)
        i = dropped[order[dropped].argmin()]
        # its pair's rows start at the first of its time among its taxi's rows
        lo = np.searchsorted(key, key[i])
        repeat = (int(order[i]), int(order[lo + np.searchsorted(ts[lo:i], ts[i])]))
    order = order[first]
    occ = occ[order]
    trace = Trace(taxi_ids, np.searchsorted(key[first], np.arange(len(taxi_ids) + 1)),
                  ts[first], lat[order], lon[order], occ if (occ >= 0).any() else None)
    return trace, len(first) - len(order), repeat


_BLOCK_BYTES = 1 << 18  # text parsed at once: about 5,000 lines, across small files

# A Beijing stamp has the shape of _STAMP once each digit is read as '0';
# its fields are the rows _STAMP_FIELDS[k] of the stamp's column layout.
_DIGIT_AS_ZERO = np.arange(256, dtype=np.uint8)
_DIGIT_AS_ZERO[ord("0"):ord("9") + 1] = ord("0")
_STAMP = np.frombuffer(b"0000-00-00 00:00:00", dtype=np.uint8)
_STAMP_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))


def _byte_pieces(fh: IO[bytes]) -> Iterator[bytes]:
    """A binary stream's text in pieces of about ``_BLOCK_BYTES`` of whole
    lines, each ending in '\\n' (one is added to an unended last line)."""
    while piece := fh.read(_BLOCK_BYTES):
        if not piece.endswith(b"\n"):
            piece += fh.readline()
            if not piece.endswith(b"\n"):
                piece += b"\n"
        yield piece


def _blocks(files: Sequence[tuple[str, str, str | None]]
            ) -> Iterator[tuple[str, str | None, bytes]]:
    """The (path, format, taxi id) files' text as (format, taxi id, raw)
    blocks in order. ``raw`` holds whole lines, each ending in '\\n'. Files
    of one format and taxi id in a row share blocks of about
    ``_BLOCK_BYTES``."""
    pending: list[bytes] = []
    size = 0
    key = None
    for path, fmt, taxi_id in files:
        if pending and key != (fmt, taxi_id):
            yield (*key, b"".join(pending))
            pending, size = [], 0
        key = (fmt, taxi_id)
        with open(path, "rb") as fh:
            for piece in _byte_pieces(fh):
                pending.append(piece)
                size += len(piece)
                if size >= _BLOCK_BYTES:
                    yield (*key, b"".join(pending))
                    pending, size = [], 0
    if pending:
        yield (*key, b"".join(pending))


def _clean_columns(buf: np.ndarray, fmt: str, ctx: _AdapterContext, codes: TaxiCodes
                   ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[str]]:
    """Each line's '\\n' position in a Beijing or canonical block, the
    lines the byte check accepts, their (taxi code, t, lat, lon) columns and
    a canonical block's occupancy, and the taxi ids they gave ``codes``.

    A line split by ``_split`` is accepted where it holds 4 fields (or a
    canonical line 5, the last one byte, '0' or '1'), no byte outside
    printable ASCII but the space of a Beijing stamp, and a taxi id of at
    most ``_ID_BYTES`` bytes. A Beijing stamp must read 'YYYY-MM-DD
    HH:MM:SS', a date and time ``_local_us`` takes, below 2**53 microseconds
    in magnitude, so that dividing it once as a float gives the line
    parser's float; its fields are read by Horner over the rows of its
    column layout. The number fields go to one ``_decimals`` call; a line
    with a field it refuses (empty, an exponent, a '+', 20 or more digits)
    is left to the line parser, which reads it with float().
    """
    beijing = fmt == "beijing"
    ends, count, odd, lo, hi = _split(buf, ord("," if beijing else ";"), 4)
    ok = (odd == beijing) & (hi[0] - lo[0] <= _ID_BYTES)
    if beijing:
        ok &= (count == 4) & (hi[1] - lo[1] == 19)
    else:
        flag = buf.take(ends - 1) - np.uint8(ord("0"))  # wraps below '0'
        five = (count == 5) & (ends - hi[3] == 2) & (flag <= 1)
        ok &= (count == 4) | five
    at = np.flatnonzero(ok)
    if beijing:
        stamp = buf.take(lo[1].take(at) + np.arange(19)[:, None])  # one row per byte position
        digit = stamp - np.uint8(ord("0"))  # wraps where the shape check below refuses
        fields = []
        for a, b in _STAMP_FIELDS:
            value = digit[a].astype(np.int64)
            for row in digit[a + 1:b]:
                value = value * 10 + row
            fields.append(value)
        us, ok = _local_us(*fields, ctx.utc_offset_hours)
        ok &= (_DIGIT_AS_ZERO.take(stamp) == _STAMP[:, None]).all(axis=0) & (np.abs(us) < 2**53)
        at, t = at[ok], us[ok] / 1_000_000
    first = 2 if beijing else 1  # the number fields are the last, in file order
    words, read = _decimals(buf, *(a[first:].take(at, axis=1).ravel() for a in (lo, hi)))
    read = read.reshape(4 - first, -1).all(axis=0)
    numbers = list(words.view(np.float64).reshape(4 - first, -1).compress(read, axis=1))
    at = at[read]
    taxi, names = _text_column(buf, lo[0].take(at), hi[0].take(at), codes)
    if beijing:  # T-Drive order is longitude first
        return ends, at, [taxi, t[read], numbers[1], numbers[0]], names
    occ = np.where(five[at], flag[at].astype(np.int8), np.int8(-1))
    return ends, at, [taxi, *numbers, occ], names


def _read_block(raw: bytes, fmt: str, ctx: _AdapterContext, codes: TaxiCodes,
                report: ParseReport) -> list[np.ndarray]:
    """A block's (taxi code, t, lat, lon, occupancy) rows in line order, with
    every line counted in ``report``: a line the byte check accepts is read
    in columns, any other decoded and read by the format's line parser. Rows
    outside ``_check_point``'s validity are left out, with their reasons
    added to the rejects."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    if fmt in ("beijing", "canonical"):
        ends, at, parts, ids = _clean_columns(buf, fmt, ctx, codes)
    else:
        ends, at, parts, ids = np.flatnonzero(buf == ord("\n")), [], [], []
    starts = np.concatenate(([0], ends[:-1] + 1))
    first_lineno = report.total_lines + 1
    report.total_lines += len(ends)
    taxi = np.zeros(len(ends), dtype=np.int64)
    t, lat, lon = (np.zeros(len(ends)) for _ in range(3))
    occ = np.full(len(ends), -1, dtype=np.int8)
    row = np.zeros(len(ends), dtype=bool)
    for column, part in zip((taxi, t, lat, lon, occ), parts):
        column[at] = part
    row[at] = True
    parse_line = _LINE_PARSERS[fmt]
    parsed, parsed_at = [], []
    for i in np.flatnonzero(~row).tolist():
        line = raw[starts[i]:ends[i]].decode("utf-8", errors="replace").strip()
        if not line:
            report.rejects.append((first_lineno + i, "blank line"))
            continue
        try:
            parsed.append(parse_line(line, ctx))
        except ValueError as exc:
            report.rejects.append((first_lineno + i, str(exc)))
            continue
        parsed_at.append(i)
    if parsed:
        parsed_ids, *columns = zip(*parsed)
        taxi[parsed_at] = codes.encode(parsed_ids)
        for column, part in zip((t, lat, lon, occ), columns):
            column[parsed_at] = part
        row[parsed_at] = True
        ids += parsed_ids
    valid = (row & np.isfinite(t) & (t >= 0) & (lat >= -90.0) & (lat <= 90.0)
             & (lon >= -180.0) & (lon <= 180.0))
    bad_codes = [codes.index[tid] for tid in set(ids) if taxi_id_fault(tid)]
    if bad_codes:
        valid &= ~np.isin(taxi, bad_codes)
    invalid = np.flatnonzero(row & ~valid)
    if len(invalid):
        names = list(codes.index)
        report.rejects.extend(
            (first_lineno + i, _check_point(names[code], *point))
            for i, code, *point in zip(invalid.tolist(), taxi[invalid].tolist(),
                                       t[invalid].tolist(), lat[invalid].tolist(),
                                       lon[invalid].tolist()))
    return [column[valid] for column in (taxi, t, lat, lon, occ)]


def _line_count(path: str) -> int:
    """The lines of a file as the reader splits them."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 20):
            lines += piece.count(b"\n")
            last = piece[-1:]
    return lines + (last != b"\n")


def parse_trace_files(files: Iterable[tuple[str, str, str | None]],
                      utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """One trace from the (path, format, taxi id) files, read in turn block
    by block: fixes grouped by ascending taxi id and sorted by time.

    Returns the Trace plus a ParseReport. Line numbers run on across the
    files. Malformed or out-of-validity lines land in the report's rejects
    with their 1-based line number; where a (taxi id, timestamp) pair
    recurs, the first line read wins and the others count as deduplicated.
    A file splits its lines at '\\n' only and decodes them as UTF-8 with
    errors replaced. Every format is checked before any file is read; the
    columns are allocated once, for the lines the files hold.
    """
    files = list(files)
    for _, fmt, taxi_id in files:
        if fmt not in _LINE_PARSERS:
            raise ValueError(f"unknown trace format {fmt!r}; expected one of {FORMATS}")
        if fmt == "sanfrancisco" and taxi_id is None:
            raise ValueError("sanfrancisco files carry no inline taxi id; pass taxi_id=")
    capacity = sum(_line_count(path) for path, _, _ in files)
    columns = [np.empty(capacity, dtype)
               for dtype in (np.int64, np.float64, np.float64, np.float64, np.int8)]
    ctx = _AdapterContext(taxi_id=None, utc_offset_hours=utc_offset_hours)
    report = ParseReport()
    codes = TaxiCodes()
    count = 0
    for fmt, taxi_id, raw in _blocks(files):
        ctx.taxi_id = taxi_id
        parts = _read_block(raw, fmt, ctx, codes, report)
        end = count + len(parts[0])
        for column, part in zip(columns, parts):
            column[count:end] = part
        count = end
    report.rejects.sort()
    taxi, t, lat, lon, occ = (column[:count] for column in columns)
    trace, report.deduplicated, report.first_repeat = _sorted_unique(
        *codes.ranked(taxi), t, lat, lon, occ)
    report.accepted = len(trace)
    return trace, report


def parse_trace_file(path: str, fmt: str, *, taxi_id: str | None = None,
                     utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """``parse_trace_files`` on one file."""
    return parse_trace_files([(path, fmt, taxi_id)], utc_offset_hours)


def clip_to_bounds(trace: Trace, bounds: CityBounds) -> Trace:
    """The fixes inside the closed bounding box, in order."""
    return trace.select(bounds.contains(trace.lat, trace.lon))


def write_canonical(trace: Trace, fh: IO[str]) -> None:
    """One ``taxi_id;timestamp;lat;lon[;occ]`` line per fix, in order: the
    occupancy field only where ``occupied`` holds a flag."""
    taxi = np.repeat(np.arange(len(trace.taxi_ids)), np.diff(trace.offsets))
    occupancy = []
    if trace.occupied is not None:
        occ = trace.occupied
        occupancy = [(("", ";0", ";1"), (occ >= 0).astype(np.int8) + (occ == 1))]
    _write_table(fh, len(trace), [(trace.taxi_ids, taxi), b";", trace.t, b";", trace.lat, b";",
                                  trace.lon, *occupancy, b"\n"])


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
    """A road-grid file: a header line, then one count per line. A line that
    does not parse raises ValueError naming its line number."""
    lineno, counts = 1, []
    try:
        header = fh.readline().strip().split(";")
        if len(header) != 6:
            raise ValueError("grid header must be rows;cols;lat_min;lat_max;lon_min;lon_max")
        rows, cols = int(header[0]), int(header[1])
        bounds = CityBounds(float(header[2]), float(header[3]),
                            float(header[4]), float(header[5]))
        for lineno, line in enumerate(fh, start=2):
            if text := line.strip():
                counts.append(int(text))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return GridCounts(bounds=bounds, rows=rows, cols=cols, counts=tuple(counts))
