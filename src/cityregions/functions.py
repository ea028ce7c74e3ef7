"""Hourly region-visit transactions, Apriori mining, and functional labels.

Each (local date, hour) gets one boolean table: a row per taxi active that
hour, an item per region the taxi visited at least once. Level-wise Apriori
finds the frequent region itemsets per hour, counting supports on that hour's
region bitmaps of taxi rows; a region is then labeled
workplace / entertainment / residential by which time window accumulates the
largest frequent-support mass, or "other" when nothing dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from itertools import combinations, compress
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .columns import FLOAT_FIELD, INT_FIELD, read_columns
from .regions import EventTable

HourKey = tuple[date, int]

WORKPLACE = "workplace"
ENTERTAINMENT = "entertainment"
RESIDENTIAL = "residential"
OTHER = "other"

LABELS = (WORKPLACE, ENTERTAINMENT, RESIDENTIAL, OTHER)

DEFAULT_MINSUP = 0.2

# window name -> region label it votes for
WINDOW_LABEL = {"work": WORKPLACE, "entertainment": ENTERTAINMENT, "home": RESIDENTIAL}

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

_WEEKDAYS = range(0, 5)
_ALL_DAYS = range(0, 7)


@dataclass(frozen=True)
class TimeWindows:
    """Disjoint (day-of-week, hour) slot sets; Monday is day 0."""

    work: frozenset[tuple[int, int]]
    entertainment: frozenset[tuple[int, int]]
    home: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if (self.work & self.entertainment or self.work & self.home
                or self.entertainment & self.home):
            raise ValueError("time windows must be disjoint")

    @classmethod
    def default(cls) -> "TimeWindows":
        """Weekday 08-17 work; weekday 17-23 + weekend 08-22 entertainment;
        23-08 nights all week home."""
        work = {(d, h) for d in _WEEKDAYS for h in range(8, 17)}
        ent = {(d, h) for d in _WEEKDAYS for h in range(17, 23)}
        ent |= {(d, h) for d in (5, 6) for h in range(8, 22)}
        home = {(d, h) for d in _ALL_DAYS for h in (23, *range(0, 8))}
        return cls(work=frozenset(work), entertainment=frozenset(ent),
                   home=frozenset(home))

    def window_of(self, slot: tuple[int, int]) -> str | None:
        if slot in self.work:
            return "work"
        if slot in self.entertainment:
            return "entertainment"
        if slot in self.home:
            return "home"
        return None


@dataclass(frozen=True, eq=False)
class TransactionTable:
    """One hour's visits as columns: visit i puts region ``region[i]`` into
    the row ``row[i]`` (0 <= row < ``n_rows``) of one taxi active that hour.

    Rows are numbered in taxi-id order; ``row`` is non-decreasing, and a region
    may repeat within a row. The columns may be views of a larger table.
    """

    hour_key: HourKey
    n_rows: int
    row: np.ndarray
    region: np.ndarray


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[int]
    count: int
    n_rows: int

    @property
    def support(self) -> float:
        return self.count / self.n_rows


@dataclass(frozen=True)
class RegionFunction:
    region_id: int
    label: str
    window_scores: dict[str, float] = field(compare=False)


def local_hour_key(timestamp: float, utc_offset_hours: float = 0.0) -> HourKey:
    tz = timezone(timedelta(hours=utc_offset_hours))
    dt = datetime.fromtimestamp(timestamp, tz=tz)
    return dt.date(), dt.hour


def _hour_index(t: np.ndarray, utc_offset_hours: float) -> np.ndarray:
    """Local hours since the epoch, as ``local_hour_key`` places each timestamp.

    Like ``datetime.fromtimestamp``, a timestamp is first rounded to the
    microsecond (half to even), then shifted by the offset, itself rounded to
    the microsecond as ``timedelta`` does; the hour is a floor division of
    the integer microseconds.
    """
    whole = np.trunc(t)
    us = whole.astype(np.int64) * 10**6 + np.rint((t - whole) * 1e6).astype(np.int64)
    us += timedelta(hours=utc_offset_hours) // timedelta(microseconds=1)
    return us // 3_600_000_000


def hourly_transactions(events: EventTable,
                        utc_offset_hours: float = 0.0) -> dict[HourKey, TransactionTable]:
    """All per-hour tables, keyed and ordered by (local date, hour).

    The tables' columns are views of one (hour, taxi)-sorted copy of the
    region column and of the row numbers.
    """
    t = events.t
    if not len(t):
        return {}
    try:  # datetime takes an interval of timestamps: check its ends
        local_hour_key(float(t.min()), utc_offset_hours)
        local_hour_key(float(t.max()), utc_offset_hours)
    except (ValueError, OverflowError, OSError):
        for ts in t.tolist():  # raise what the first bad timestamp raises
            local_hour_key(ts, utc_offset_hours)
        raise
    hour = _hour_index(t, utc_offset_hours)
    # one key in (hour, taxi) order, sorted stably as np.lexsort would: the
    # checks above bound the hours to datetime's years 1-9999, a span below
    # 9 * 10**7, and taxi codes lie below len(taxi_ids), so it fits int64 for
    # up to 10**11 taxis. A row is a set: region order is moot.
    order = np.argsort((hour - hour.min()) * len(events.taxi_ids) + events.taxi, kind="stable")
    hour, taxi, region = hour[order], events.taxi[order], events.region[order]
    del order
    new_row = np.ones(len(hour), dtype=bool)
    new_row[1:] = (hour[1:] != hour[:-1]) | (taxi[1:] != taxi[:-1])
    del taxi
    row = np.cumsum(new_row) - 1
    del new_row
    starts = np.flatnonzero(np.r_[True, hour[1:] != hour[:-1]])
    ends = np.r_[starts[1:], len(hour)]
    row -= np.repeat(row[starts], ends - starts)  # numbered from 0 in each hour
    tables: dict[HourKey, TransactionTable] = {}
    for a, b, h in zip(starts.tolist(), ends.tolist(), hour[starts].tolist()):
        key = (date.fromordinal(_EPOCH_ORDINAL + h // 24), h % 24)
        tables[key] = TransactionTable(hour_key=key, n_rows=int(row[b - 1]) + 1,
                                       row=row[a:b], region=region[a:b])
    return tables


def min_count(n_rows: int, minsup: float) -> int:
    """Smallest integer count with count / n_rows >= minsup.

    minsup is taken at its shortest-decimal face value (0.2 means exactly
    1/5), so a support of exactly minsup is frequent, matching the >= in the
    level-wise rule.
    """
    return math.ceil(Fraction(str(minsup)) * n_rows)


# uint64 words gathered per block when counting candidates: 512 KB
_BLOCK_WORDS = 1 << 16


def apriori(table: TransactionTable, minsup: float = DEFAULT_MINSUP) -> list[FrequentItemset]:
    """Level-wise frequent itemset mining on the hour's region bitmaps.

    Region j's bitmap sets bit r when row r holds j; the table is an
    ``n_items x ceil(n_rows / 64)`` uint64 matrix, freed on return. One
    boolean scatter fills an ``n_items x 64 * ceil(n_rows / 64)`` matrix,
    freed once ``np.packbits`` has packed its flags 8 to a byte; AND and
    popcount read the words alike on either byte order. F1 comes
    from singleton counts; each C_k joins F_{k-1} pairs sharing a
    (k-2)-prefix and is pruned when any (k-1)-subset is infrequent; a
    candidate's support is the exact popcount of the AND of its items'
    bitmaps. Output is ordered by (size, items).
    """
    if not (0.0 < minsup <= 1.0):
        raise ValueError("minsup must be in (0, 1]")
    n = table.n_rows
    if n == 0:
        return []
    threshold = min_count(n, minsup)
    items, item = np.unique(table.region, return_inverse=True)
    bits = np.zeros((len(items), -(-n // 64) * 64), dtype=bool)
    bits[item, table.row] = True
    bitmaps = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    del bits

    # each level's candidates come ascending, so found is in (size, items) order
    found: list[tuple[tuple[int, ...], int]] = []
    candidates = [(i,) for i in range(len(items))]
    counts = np.bitwise_count(bitmaps).sum(axis=1)
    while True:
        keep = counts >= threshold
        frequent = list(compress(candidates, keep.tolist()))
        found += zip(frequent, counts[keep].tolist())
        candidates = _candidates(frequent)
        if not candidates:
            break
        counts = _support_counts(bitmaps, candidates)

    ids = items.tolist()
    return [FrequentItemset(items=frozenset(ids[i] for i in c), count=count, n_rows=n)
            for c, count in found]


def _candidates(frequent: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """C_k from F_{k-1}, both ascending: pairs sharing a (k-2)-prefix are
    joined, and a join with an infrequent (k-1)-subset is pruned."""
    frequent_set = set(frequent)
    out: list[tuple[int, ...]] = []
    for i, a in enumerate(frequent):
        for b in frequent[i + 1:]:
            if a[:-1] != b[:-1]:
                break  # sorted order: no later b shares a's prefix
            cand = a + (b[-1],)
            if all(sub in frequent_set for sub in combinations(cand, len(cand) - 1)):
                out.append(cand)
    return out


def _support_counts(bitmaps: np.ndarray, candidates: list[tuple[int, ...]]) -> np.ndarray:
    """How many rows hold every item of each candidate (a tuple of rows of
    ``bitmaps``): the popcount of the AND of its bitmaps, taken over blocks of
    candidates that gather about ``_BLOCK_WORDS`` words each."""
    idx = np.array(candidates, dtype=np.intp)
    counts = np.empty(len(idx), dtype=np.int64)
    step = max(1, _BLOCK_WORDS // (idx.shape[1] * bitmaps.shape[1]))
    for a in range(0, len(idx), step):
        both = np.bitwise_and.reduce(bitmaps[idx[a:a + step]], axis=1)
        counts[a:a + step] = np.bitwise_count(both).sum(axis=1)
    return counts


def classify_regions(hourly_itemsets: Mapping[HourKey, Sequence[FrequentItemset]],
                     windows: TimeWindows | None = None,
                     all_regions: Iterable[int] | None = None) -> list[RegionFunction]:
    """Label each region by the window holding its largest frequent-support mass.

    Per hour, a region scores the maximum support among frequent itemsets that
    contain it; scores accumulate into the window covering that hour's
    (day-of-week, hour) slot. The label needs a strictly greatest window score;
    ties and never-frequent regions fall to "other". Hour processing order
    cannot affect the result (scores are sums over hours).
    """
    windows = windows or TimeWindows.default()
    scores: dict[int, dict[str, float]] = {}
    for (day, hour), itemsets in hourly_itemsets.items():
        window = windows.window_of((day.weekday(), hour))
        if window is None:
            continue
        best_in_hour: dict[int, float] = {}
        for itemset in itemsets:
            for region in itemset.items:
                s = itemset.support
                if s > best_in_hour.get(region, 0.0):
                    best_in_hour[region] = s
        for region, s in best_in_hour.items():
            scores.setdefault(region, {w: 0.0 for w in WINDOW_LABEL})[window] += s

    region_ids = set(scores)
    if all_regions is not None:
        region_ids |= set(all_regions)

    out: list[RegionFunction] = []
    for region in sorted(region_ids):
        ws = scores.get(region, {w: 0.0 for w in WINDOW_LABEL})
        top = max(ws.values())
        winners = [w for w, s in ws.items() if s == top]
        if top > 0.0 and len(winners) == 1:
            label = WINDOW_LABEL[winners[0]]
        else:
            label = OTHER
        out.append(RegionFunction(region_id=region, label=label,
                                  window_scores=dict(ws)))
    return out


def hour_key_str(key: HourKey) -> str:
    return f"{key[0].isoformat()};{key[1]:02d}"


def write_itemsets(hourly: Mapping[HourKey, Sequence[FrequentItemset]],
                   fh: IO[str]) -> None:
    """Audit dump: hour;itemset;support with items comma-joined."""
    for key in sorted(hourly):
        for fi in hourly[key]:
            items = ",".join(str(i) for i in sorted(fi.items))
            fh.write(f"{hour_key_str(key)};{items};{fi.count}/{fi.n_rows}\n")


def write_labels(functions: Sequence[RegionFunction], fh: IO[str]) -> None:
    for rf in functions:
        ws = rf.window_scores
        fh.write(f"{rf.region_id};{rf.label};{repr(ws['work'])};"
                 f"{repr(ws['entertainment'])};{repr(ws['home'])}\n")


def _label(text: str) -> str:
    if text not in LABELS:
        raise ValueError(f"unknown label {text!r}; expected one of {LABELS}")
    return text


def load_labels(fh: IO[str]) -> dict[int, str]:
    """Region id -> label from a labels file, read by ``read_columns``: a
    region id (int() into int64), a label and 3 window scores (float()) per
    line; a region listed twice keeps its last label."""
    region, label, *_ = read_columns(fh, "label",
                                     [INT_FIELD, (_label, object)] + [FLOAT_FIELD] * 3)
    return dict(zip(region.tolist(), label.tolist()))
