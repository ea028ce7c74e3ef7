"""Hourly region-visit transactions, Apriori mining, and functional labels.

Each (local date, hour) gets one boolean table: a row per taxi active that
hour, an item per region the taxi visited at least once. Level-wise Apriori
finds the frequent region itemsets per hour; a region is then labeled
workplace / entertainment / residential by which time window accumulates the
largest frequent-support mass, or "other" when nothing dominates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from itertools import combinations
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True)
class TransactionTable:
    """One boolean itemset row per taxi active in the hour (empty rows omitted)."""

    hour_key: HourKey
    items: frozenset[int]
    rows: tuple[frozenset[int], ...]


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


def build_transactions(events: EventTable, hour_key: HourKey,
                       utc_offset_hours: float = 0.0) -> TransactionTable:
    """Boolean table for one local hour: row per taxi, item per visited region."""
    return hourly_transactions(events, utc_offset_hours).get(
        hour_key, TransactionTable(hour_key=hour_key, items=frozenset(), rows=()))


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
    """All per-hour tables, keyed and ordered by (local date, hour)."""
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
    order = np.lexsort((events.region, events.taxi, hour))
    hour, taxi, region = hour[order], events.taxi[order], events.region[order]
    new_row = np.ones(len(order), dtype=bool)
    new_row[1:] = (hour[1:] != hour[:-1]) | (taxi[1:] != taxi[:-1])
    region_ids = region.tolist()
    row_starts = np.flatnonzero(new_row).tolist()
    rows = [frozenset(region_ids[a:b]) for a, b in zip(row_starts, row_starts[1:] + [len(order)])]
    row_hours = hour[new_row]
    hour_starts = np.flatnonzero(np.r_[True, row_hours[1:] != row_hours[:-1]]).tolist()
    tables: dict[HourKey, TransactionTable] = {}
    for a, b, h in zip(hour_starts, hour_starts[1:] + [len(rows)],
                       row_hours[hour_starts].tolist()):
        key = (date.fromordinal(_EPOCH_ORDINAL + h // 24), h % 24)
        hour_rows = tuple(rows[a:b])
        tables[key] = TransactionTable(hour_key=key, items=frozenset().union(*hour_rows),
                                       rows=hour_rows)
    return tables


def min_count(n_rows: int, minsup: float) -> int:
    """Smallest integer count with count / n_rows >= minsup.

    minsup is taken at its shortest-decimal face value (0.2 means exactly
    1/5), so a support of exactly minsup is frequent, matching the >= in the
    level-wise rule.
    """
    return math.ceil(Fraction(str(minsup)) * n_rows)


def apriori(table: TransactionTable, minsup: float = DEFAULT_MINSUP) -> list[FrequentItemset]:
    """Level-wise frequent itemset mining.

    F1 comes from singleton counts; each C_k joins F_{k-1} pairs sharing a
    (k-2)-prefix and is pruned when any (k-1)-subset is infrequent; supports
    are exact row counts. Output is ordered by (size, items).
    """
    if not (0.0 < minsup <= 1.0):
        raise ValueError("minsup must be in (0, 1]")
    n = len(table.rows)
    if n == 0:
        return []
    threshold = min_count(n, minsup)

    singleton_counts = Counter()
    for row in table.rows:
        singleton_counts.update(row)
    frequent: dict[tuple[int, ...], int] = {
        (item,): c for item, c in singleton_counts.items() if c >= threshold}
    result: dict[tuple[int, ...], int] = dict(frequent)

    while frequent:
        prev = sorted(frequent)
        prev_set = set(prev)
        candidates: list[tuple[int, ...]] = []
        for i, a in enumerate(prev):
            for b in prev[i + 1:]:
                if a[:-1] != b[:-1]:
                    break  # sorted order: no later b shares a's prefix
                cand = a + (b[-1],)
                if all(sub in prev_set for sub in combinations(cand, len(cand) - 1)):
                    candidates.append(cand)
        if not candidates:
            break
        counts = {c: 0 for c in candidates}
        cand_sets = [(c, frozenset(c)) for c in candidates]
        for row in table.rows:
            for cand, cand_set in cand_sets:
                if cand_set <= row:
                    counts[cand] += 1
        frequent = {c: n_c for c, n_c in counts.items() if n_c >= threshold}
        result.update(frequent)

    return [FrequentItemset(items=frozenset(items), count=result[items], n_rows=n)
            for items in sorted(result, key=lambda t: (len(t), t))]


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


def load_labels(fh: IO[str]) -> dict[int, str]:
    labels: dict[int, str] = {}
    for line in fh:
        line = line.strip()
        if not line:
            continue
        f = line.split(";")
        if len(f) != 5:
            raise ValueError(f"expected 5 label fields, got {len(f)}")
        if f[1] not in LABELS:
            raise ValueError(f"unknown label {f[1]!r}; expected one of {LABELS}")
        labels[int(f[0])] = f[1]
    return labels
