"""Parse heterogeneous taxi trace files into a columnar, per-taxi sorted trace.

Supported input layouts:

* ``canonical``      -- ``taxi_id;timestamp;lat;lon[;occupancy]`` with UTC epoch seconds
* ``rome``           -- ``id;YYYY-MM-DD HH:MM:SS.ffffff+TZ;POINT(lat lon)``
* ``sanfrancisco``   -- ``lat lon occupancy epoch`` (one file per cab, id supplied by caller)
* ``beijing``        -- ``id,YYYY-MM-DD HH:MM:SS,lon,lat`` (naive local time, offset supplied)

All adapters normalize timestamps to UTC epoch seconds. Occupancy flags, where
present, ride along as optional metadata and play no role downstream. One
reader, ``parse_trace_files``, reads files of every layout in turn and fills
a ``Trace``: float64 columns plus a taxi id table, instead of one Python
object per fix.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import IO, Iterable, Iterator, Sequence

import numpy as np


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
    if not taxi_id:
        return "empty taxi id"
    if ";" in taxi_id:  # it would split a canonical trace.txt line
        return f"taxi id holds ';': {taxi_id!r}"
    return None


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
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS.take(month, mode="clip") + ((month == 2) & leap)
    ok = ((1 <= year) & (year <= 9999) & (1 <= month) & (month <= 12) & (1 <= day)
          & (day <= month_days) & (0 <= hour) & (hour < 24) & (0 <= minute) & (minute < 60)
          & (0 <= second) & (second < 60))
    y = year - (month <= 2)
    days = (y * 365 + y // 4 - y // 100 + y // 400
            + (153 * ((month + 9) % 12) + 2) // 5 + day - 719469)
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


_CHUNK_ROWS = 1 << 15  # rows written at once: bounds the byte matrix held
_BLOCK_BYTES = 1 << 18  # text parsed at once: about 5,000 lines, across small files
_ID_BYTES = 64  # a wider taxi id sends its line to the line parser

# The bytes the block check accepts: printable ASCII but space in any field,
# and 0-9 . + - e E in a number field. A Beijing stamp has the shape of
# _STAMP once each digit is read as '0'.
_NOT_NUMBER = np.ones(256, dtype=bool)
_NOT_NUMBER[list(b"0123456789.+-eE")] = False
_DIGIT_AS_ZERO = np.arange(256, dtype=np.uint8)
_DIGIT_AS_ZERO[ord("0"):ord("9") + 1] = ord("0")
_STAMP = np.frombuffer(b"0000-00-00 00:00:00", dtype=np.uint8)


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


def _count(positions: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many of the sorted ``positions`` lie in each [lo, hi)."""
    return np.searchsorted(positions, hi) - np.searchsorted(positions, lo)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each run of equal values."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    heads = np.flatnonzero(new)
    return heads, np.diff(heads, append=len(values))


def _clean_columns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, fmt: str,
                   ctx: _AdapterContext, codes: TaxiCodes
                   ) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
    """The lines of a Beijing or canonical block that the byte check accepts:
    their indices, their (taxi code, t, lat, lon) columns, and the taxi ids
    they gave ``codes``.

    A line ``starts[i]:ends[i]`` of ``buf`` is accepted where it is
    printable ASCII but for the space of a Beijing stamp, holds 4 fields, a
    taxi id of at most ``_ID_BYTES`` bytes and non-empty number fields of
    0-9 . + - e E only. A Beijing stamp must read 'YYYY-MM-DD HH:MM:SS', a
    date and time ``_local_us`` takes, at a time below 2**53 microseconds in
    magnitude, so that dividing it once as a float gives the line parser's
    float. The numbers of the accepted lines come from one ``np.loadtxt``
    call, which parses a field as float() does (both call CPython's
    string-to-double); where it refuses a field, no line is accepted.
    """
    beijing = fmt == "beijing"
    seps = np.flatnonzero(buf == ord("," if beijing else ";"))
    first_sep = np.searchsorted(seps, starts)
    ok = ((np.searchsorted(seps, ends) - first_sep == 3)
          & (_count(np.flatnonzero((buf < 0x21) | (buf > 0x7e)), starts, ends + 1)
             == 1 + beijing))
    at = np.flatnonzero(ok)
    s, e = starts[at], ends[at]
    c1, c2, c3 = (seps[first_sep[at] + k] for k in range(3))
    ok = ((c1 - s <= _ID_BYTES) & (c3 - c2 > 1) & (e - c3 > 1)
          & ((c2 - c1 == 20) if beijing else (c2 - c1 > 1))
          # the number fields hold no other byte than the separators between them
          & (_count(np.flatnonzero(_NOT_NUMBER.take(buf)), (c2 if beijing else c1) + 1, e)
             == 2 - beijing))
    at, s, c1 = at[ok], s[ok], c1[ok]
    if beijing:
        stamp = buf.take(c1[:, None] + np.arange(1, 20))
        digit = stamp - np.uint8(ord("0"))  # wraps where the shape check below refuses
        # month, day, hour, minute, second: the tens at 5, 8, .., 17, units after them
        fields = (digit[:, 5::3] * np.uint8(10) + digit[:, 6::3]).astype(np.int64)
        year = digit[:, :4].astype(np.int64) @ [1000, 100, 10, 1]
        us, ok = _local_us(year, *fields.T, ctx.utc_offset_hours)
        ok &= (_DIGIT_AS_ZERO.take(stamp) == _STAMP).all(axis=1) & (np.abs(us) < 2**53)
        at, s, c1, t = at[ok], s[ok], c1[ok], us[ok] / 1_000_000
    if not len(at):
        return at, [], []
    accepted = np.zeros(len(starts), dtype=bool)
    accepted[at] = True
    text = buf[np.repeat(accepted, ends - starts + 1)].tobytes()
    try:
        numbers = np.loadtxt(io.StringIO(text.decode("ascii")), delimiter="," if beijing else ";",
                             usecols=(3, 2) if beijing else (1, 2, 3), comments=None,
                             quotechar=None, ndmin=2)
    except ValueError:
        return at[:0], [], []
    if not beijing:
        t = numbers[:, 0]
    width = max(int((c1 - s).max()), 1)
    offsets = np.arange(width)
    matrix = buf[np.minimum(s[:, None] + offsets, c1[:, None])]
    matrix[offsets >= (c1 - s)[:, None]] = 0
    ids = matrix.view(f"S{width}").ravel()
    heads, lengths = _runs(ids)
    names = [b.decode("ascii") for b in ids[heads].tolist()]
    taxi = np.repeat(codes.encode(names), lengths)
    return at, [taxi, t, numbers[:, -2], numbers[:, -1]], names


def _read_block(raw: bytes, fmt: str, ctx: _AdapterContext, codes: TaxiCodes,
                report: ParseReport) -> list[np.ndarray]:
    """A block's (taxi code, t, lat, lon, occupancy) rows in line order, with
    every line counted in ``report``: a line the byte check accepts is read
    in columns, any other decoded and read by the format's line parser. Rows
    outside ``_check_point``'s validity are left out, with their reasons
    added to the rejects."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    first_lineno = report.total_lines + 1
    report.total_lines += len(ends)
    taxi = np.zeros(len(ends), dtype=np.int64)
    t, lat, lon = (np.zeros(len(ends)) for _ in range(3))
    occ = np.full(len(ends), -1, dtype=np.int8)
    row = np.zeros(len(ends), dtype=bool)
    ids: list[str] = []  # the taxi ids of the block's rows
    if fmt in ("beijing", "canonical"):
        at, columns, ids = _clean_columns(buf, starts, ends, fmt, ctx, codes)
        for column, part in zip((taxi, t, lat, lon), columns):
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
    bad_codes = [codes.index[tid] for tid in set(ids) if not tid or ";" in tid]
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
    trace, report.deduplicated = _sorted_unique(*codes.ranked(taxi), t, lat, lon, occ)
    report.accepted = len(trace)
    return trace, report


def parse_trace_file(path: str, fmt: str, *, taxi_id: str | None = None,
                     utc_offset_hours: float = 0.0) -> tuple[Trace, ParseReport]:
    """``parse_trace_files`` on one file."""
    return parse_trace_files([(path, fmt, taxi_id)], utc_offset_hours)


def first_repeat(path: str) -> tuple[int, str]:
    """The first line of a canonical trace file that the reader counts as
    deduplicated, and which earlier line holds its (taxi id, timestamp)."""
    seen: dict[tuple[str, float], int] = {}
    # lines split and decoded as the reader splits and decodes them
    with open(path, encoding="utf-8", errors="replace", newline="\n") as fh:
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


# A writer's cells are byte matrices with one column per row of the table
# and one row per byte position, each with the mask of the bytes the cells
# fill: each byte position is then one contiguous vector.

_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _digits(v: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of each unsigned ``v`` right-aligned in ``width``
    positions, and the mask of the positions its digits fill (at least one)."""
    least = _POW10[width - 1::-1].copy()  # the least value that fills each position
    least[-1] = 0  # the last digit stays, also for 0
    keep = least[:, None] <= v
    v = v.astype(np.uint32 if width <= 9 else np.uint64)  # uint32 divides faster
    out = np.empty((width, len(v)), np.uint8)
    for j in range(width - 1, -1, -1):
        v, out[j] = np.divmod(v, 10)
    out += ord("0")
    return out, keep


def _signed_cells(neg: np.ndarray, magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'-' where ``neg``, then the digits of the unsigned ``magnitude``."""
    digits, keep = _digits(magnitude, len(str(int(magnitude.max()))))
    return (np.vstack((np.full((1, len(neg)), ord("-"), np.uint8), digits)),
            np.vstack((neg, keep)))


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``format_number`` of each value, and their mask.

    An integral value below 2**53 prints the digits of its int. A value with
    1e-4 <= |x| < 1e15 that is k / 10**d for the smallest d in 1..9 with
    ``k = rint(|x| * 10**d)`` and |x| < 2**52 / 10**d prints k with a point d
    digits from its end: IEEE division is correctly rounded, so that decimal
    reads back as x, and the floats there lie less than 10**-d apart, so no
    other decimal of at most d fraction digits does; it is the shortest
    round-trip string, which repr prints (the smallest d leaves no trailing
    zero). Any other value takes ``repr``'s text, which is ``format_number``'s
    there.
    """
    a = np.abs(x)
    done = np.isfinite(x) & (np.trunc(x) == x) & (a < 2**53)
    k = np.where(done, a, 0).astype(np.uint64)
    d = np.zeros(len(x), np.intp)
    rest = np.flatnonzero(~done & (a >= 1e-4) & (a < 1e15))
    for places in range(1, 10):
        scale = 10.0 ** places
        ad = a[rest]
        kd = np.rint(ad * scale)
        hit = (kd / scale == ad) & (ad < 2**52 / scale)
        at = rest[hit]
        k[at], d[at], done[at] = kd[hit], places, True
        rest = rest[~hit]
    pow10 = _POW10[d]
    cells, keep = _signed_cells(done & (x < 0), k // pow10)
    most = int(d.max(initial=0))
    if most:
        fraction, _ = _digits((k % pow10) * _POW10[most - d], most)
        cells = np.vstack((cells, np.full((1, len(x)), ord("."), np.uint8), fraction))
        # the point where d > 0, fraction digit j where d > j
        keep = np.vstack((keep, np.append(0, np.arange(most))[:, None] < d))
    fallback = np.flatnonzero(~done)
    if len(fallback):
        # each such value is non-finite, non-integral or at least 2**53 in
        # size, where format_number is repr
        texts = list(map(repr, x[fallback].tolist()))
        width = max(map(len, texts))
        if width > len(cells):
            pad = ((0, width - len(cells)), (0, 0))
            cells, keep = np.pad(cells, pad), np.pad(keep, pad)
        cells[:width, fallback] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width).T
        keep[:, fallback] = np.arange(len(cells))[:, None] < list(map(len, texts))
    return cells, keep


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``str`` of each int, and their mask."""
    neg = x < 0
    magnitude = x.astype(np.uint64)
    magnitude[neg] = -magnitude[neg]  # modulo 2**64: |x|, also for -2**63
    return _signed_cells(neg, magnitude)


def _write_table(fh: IO[str], rows: int, columns: Sequence) -> None:
    """``rows`` lines, each the concatenation of its cells in ``columns``,
    written ``_CHUNK_ROWS`` rows at a time as one str.

    A column is a ``bytes`` (the same cell in every row), a float array (as
    ``format_number`` prints it), an int array (as ``str``) or a ``(texts,
    codes)`` pair whose row i is ``texts[codes[i]]``. Each text is encoded
    once, as UTF-8 with surrogates passed through, so the str written is the
    text itself. A chunk's cells fill one byte matrix, and the bytes their
    mask keeps, read line by line, are the lines; the mask comes from
    lengths, as a text may hold NUL.
    """
    tables = []
    for column in columns:
        if isinstance(column, tuple):
            raw = [text.encode("utf-8", "surrogatepass") for text in column[0]]
            width = max([1, *map(len, raw)])
            table = np.array(raw, f"S{width}").view(np.uint8).reshape(len(raw), width)
            column = (table.T, np.arange(width)[:, None] < list(map(len, raw)), column[1])
        tables.append(column)
    for a in range(0, rows, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, rows)
        cells = []
        for column in tables:
            if isinstance(column, bytes):
                cells.append((np.repeat(np.frombuffer(column, np.uint8)[:, None], b - a, axis=1),
                              np.ones((len(column), b - a), bool)))
            elif isinstance(column, tuple):
                table, filled, codes = column
                cells.append((table[:, codes[a:b]], filled[:, codes[a:b]]))
            elif column.dtype.kind == "f":
                cells.append(_float_cells(column[a:b].astype(np.float64, copy=False)))
            else:
                cells.append(_int_cells(column[a:b]))
        matrix, keep = (np.vstack(parts) for parts in zip(*cells))
        fh.write(matrix.T[keep.T].tobytes().decode("utf-8", "surrogatepass"))


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


def write_rows(fh: IO[str], columns: Sequence) -> None:
    """One line of ';'-joined fields per row: a float column as
    format_number prints it, an int column as str() does, and a ``(texts,
    codes)`` column as ``texts[codes[i]]`` in row i."""
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    _write_table(fh, rows, [part for column in columns for part in (column, b";")][:-1] + [b"\n"])


# the (parse, dtype) of a read_columns number field
FLOAT_FIELD = (float, np.float64)
INT_FIELD = (int, np.int64)


def _parse_column(field, texts: list[str]) -> np.ndarray:
    """One field's texts as an array: ids coded by a ``TaxiCodes``, any
    other field by its (parse, dtype)."""
    if isinstance(field, TaxiCodes):
        return field.encode(texts)
    parse, dtype = field
    return np.fromiter(map(parse, texts), dtype, len(texts))


# The bytes a chunk may hold for np.loadtxt to read it: printable ASCII but
# space, and the '\n' that ends a line. No field can then hold whitespace to
# strip, a '\r' or NUL, or a character outside ASCII.
_LOADTXT_BYTES = bytes(range(0x21, 0x7f)) + b"\n"


def _loadtxt_columns(text: str, fields: Sequence) -> list[np.ndarray] | None:
    """A chunk's columns from one ``np.loadtxt`` call, or None where they
    might differ from what ``_line_columns`` returns.

    The chunk must hold only ``_LOADTXT_BYTES``, and every line
    ``len(fields)`` fields, so none is blank. A number field parses as
    loadtxt parses it (CPython's own string-to-double, and an int64 that
    refuses what int() refuses); any other field reads as bytes as wide as
    its widest text, so none is cut short, and is parsed once per run of
    equal values through ``_parse_column``. Any text loadtxt or a parse
    refuses, or a text wider than ``_ID_BYTES``, gives None.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"  # the file's last line
    raw = text.encode("ascii")
    if raw.translate(None, _LOADTXT_BYTES):
        return None
    buf = np.frombuffer(raw, np.uint8)
    newline = buf == ord("\n")
    ends = np.flatnonzero(newline | (buf == ord(";")))  # where each field ends
    # len(fields) ends a line, and loadtxt refuses a line of another field
    # count: so no line is blank, and the widths are read off line by line
    if len(ends) != np.count_nonzero(newline) * len(fields):
        return None
    widths = (np.diff(ends, prepend=-1) - 1).reshape(-1, len(fields)).max(axis=0)
    if any(w > _ID_BYTES for f, w in zip(fields, widths.tolist())
           if f not in (FLOAT_FIELD, INT_FIELD)):
        return None  # it would widen its field on every line of the chunk
    dtype = [(f"f{k}", f[1] if f in (FLOAT_FIELD, INT_FIELD) else f"S{max(w, 1)}")
             for k, (f, w) in enumerate(zip(fields, widths.tolist()))]
    try:
        table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=";", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:
        return None
    columns = []
    for k, f in enumerate(fields):
        column = table[f"f{k}"]
        if f in (FLOAT_FIELD, INT_FIELD):
            columns.append(column.copy())  # no view keeps the chunk's texts alive
            continue
        heads, lengths = _runs(column)
        try:
            values = _parse_column(f, list(map(bytes.decode, column[heads].tolist())))
        except (ValueError, OverflowError):
            return None
        columns.append(np.repeat(values, lengths))
    return columns


def _line_columns(lines: list[str], noun: str, fields: Sequence) -> list[np.ndarray]:
    """The columns of stripped, non-blank lines, parsed a column at a time
    when every line has ``len(fields)`` fields and no parse raises;
    otherwise line by line, so the first bad line raises ``expected N
    <noun> fields, got M`` or the error of its first bad field."""
    width = len(fields)
    try:
        if set(map(str.count, lines, itertools.repeat(";", len(lines)))) - {width - 1}:
            raise ValueError(f"a line without {width} fields")
        texts = ";".join(lines).split(";")
        return [_parse_column(f, texts[k::width]) for k, f in enumerate(fields)]
    except (ValueError, OverflowError):
        for line in lines:
            texts = line.split(";")
            if len(texts) != width:
                raise ValueError(f"expected {width} {noun} fields, got {len(texts)}") from None
            for f, text in zip(fields, texts):
                _parse_column(f, [text])
        raise


def read_columns(fh: IO[str], noun: str, fields: Sequence) -> list[np.ndarray]:
    """The columns of a ';'-separated artifact, one per field, read a chunk
    of lines (about 1 MB) at a time from a stream that splits lines at
    '\\n' only.

    Every artifact a stage reads back, but ``trace.txt``, is read here.
    ``fields`` gives each field's ``(parse, dtype)``: ``parse`` is a pure
    function that turns the text into a value or raises ValueError, and the
    value must fit the dtype. A ``TaxiCodes`` entry is the taxi-id column,
    coded through it. Lines are stripped and blank ones skipped. A chunk is
    read by ``_loadtxt_columns`` where it is printable ASCII without spaces
    or blank lines and every field parses; any other chunk by
    ``_line_columns``. Both return the same values, so the first bad line
    raises ``expected N <noun> fields, got M`` or the error of its first
    bad field.
    """
    columns: list[list[np.ndarray]] = [[] for _ in fields]
    while text := fh.read(1 << 20):
        if not text.endswith("\n"):
            text += fh.readline()  # the rest of the chunk's last line
        parts = _loadtxt_columns(text, fields)
        if parts is None:
            lines = [s for s in map(str.strip, text.split("\n")) if s]
            if not lines:
                continue
            parts = _line_columns(lines, noun, fields)
        for column, part in zip(columns, parts):
            column.append(part)
    return [np.concatenate(c) if c else _parse_column(f, []) for c, f in zip(columns, fields)]


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
        """The ids ``taxi`` holds, ascending, and ``taxi`` recoded into that order."""
        used = np.bincount(taxi, minlength=len(self.index)) > 0
        taxi_ids = sorted(itertools.compress(self.index, used.tolist()))
        rank = np.empty(len(self.index), dtype=np.int64)
        rank[[self.index[tid] for tid in taxi_ids]] = np.arange(len(taxi_ids))
        return tuple(taxi_ids), rank[taxi]


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
