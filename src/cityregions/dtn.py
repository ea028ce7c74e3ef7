"""Target-set simulation: encounter derivation, carrier selection, propagation.

Two taxis visiting the same region within the same time bin can exchange
data. Publishers are chosen by one of three policies -- Oracle (ranked on
eval-window hot-region visits, i.e. future knowledge), History (same ranking
on an earlier window), Random -- and each carries one message copy until it
first meets a subscriber.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import IO, Iterable, Mapping, Sequence

from .functions import TimeWindows, WINDOW_LABEL
from .regions import VisitEvent

DEFAULT_BIN_WIDTH_S = 300.0

ORACLE = "oracle"
HISTORY = "history"
RANDOM = "random"
POLICIES = (ORACLE, HISTORY, RANDOM)


class SelectionError(ValueError):
    """Not enough candidate taxis to select the requested carrier count."""


@dataclass(frozen=True)
class EncounterEvent:
    taxi_a: str
    taxi_b: str
    region_id: int
    bin_start: float
    bin_width: float


@dataclass(frozen=True)
class SimScenario:
    """One resolved simulation: concrete subscribers, policy and seed."""

    eval_window: tuple[float, float]
    hot_regions: frozenset[int]
    subscribers: frozenset[str]
    publisher_count: int
    policy: str
    history_window: tuple[float, float] | None = None
    rng_seed: int = 0


@dataclass(frozen=True)
class SimOutcome:
    delivered: int
    total: int
    delivery_ratio: float
    delivery_times: dict[str, float | None]


def encounters(events: Iterable[VisitEvent],
               bin_width: float = DEFAULT_BIN_WIDTH_S) -> list[EncounterEvent]:
    """Pairwise co-visits per (region, time bin), ordered by region, bin, ids."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    groups: dict[tuple[int, int], set[str]] = {}
    for e in events:
        b = math.floor(e.timestamp / bin_width)
        groups.setdefault((e.region_id, b), set()).add(e.taxi_id)
    out: list[EncounterEvent] = []
    for (region, b) in sorted(groups):
        taxis = sorted(groups[(region, b)])
        for a, c in combinations(taxis, 2):
            out.append(EncounterEvent(taxi_a=a, taxi_b=c, region_id=region,
                                      bin_start=b * bin_width, bin_width=bin_width))
    return out


def in_window(events: Iterable[VisitEvent],
              window: tuple[float, float]) -> list[VisitEvent]:
    start, end = window
    return [e for e in events if start <= e.timestamp < end]


def select_oracle(events: Iterable[VisitEvent],
                  hot_regions: frozenset[int] | set[int], k: int,
                  exclude: frozenset[str] | set[str] = frozenset()) -> set[str]:
    """Top-k taxis by hot-region visits among the taxis active in ``events``.

    Ties go to the smaller taxi id. Over the evaluation window's own events
    this is the oracle (an upper bound); over an earlier window's events it is
    the history policy, ``select_history``.
    """
    counts: Counter[str] = Counter()
    active: set[str] = set()
    for e in events:
        if e.taxi_id in exclude:
            continue
        active.add(e.taxi_id)
        if e.region_id in hot_regions:
            counts[e.taxi_id] += 1
    if len(active) < k:
        raise SelectionError(f"need {k} active taxis, only {len(active)} available")
    ranked = sorted(active, key=lambda t: (-counts[t], t))
    return set(ranked[:k])


select_history = select_oracle


def select_random(population: Iterable[str], k: int, rng_seed: int,
                  exclude: frozenset[str] | set[str] = frozenset()) -> set[str]:
    pool = sorted(set(population) - set(exclude))
    if len(pool) < k:
        raise SelectionError(f"need {k} taxis, only {len(pool)} available")
    return set(random.Random(rng_seed).sample(pool, k))


def propagate(publishers: Iterable[str], subscribers: Iterable[str],
              encounter_seq: Sequence[EncounterEvent]) -> SimOutcome:
    """Deliver each publisher's copy at its first subscriber encounter.

    Encounters must already be time-sorted. Only direct publisher-to-subscriber
    contact delivers; there is no relaying and no copy expiry.
    """
    pubs = set(publishers)
    subs = set(subscribers)
    carrying = set(pubs)
    times: dict[str, float | None] = {p: None for p in sorted(pubs)}
    for enc in encounter_seq:
        if not carrying:
            break
        if enc.taxi_a in carrying and enc.taxi_b in subs:
            times[enc.taxi_a] = enc.bin_start
            carrying.discard(enc.taxi_a)
        if enc.taxi_b in carrying and enc.taxi_a in subs:
            times[enc.taxi_b] = enc.bin_start
            carrying.discard(enc.taxi_b)
    delivered = sum(1 for t in times.values() if t is not None)
    total = len(pubs)
    return SimOutcome(delivered=delivered, total=total,
                      delivery_ratio=delivered / total if total else 0.0,
                      delivery_times=times)


def hot_regions_for_window(window: tuple[float, float],
                           region_labels: Mapping[int, str],
                           time_windows: TimeWindows | None = None,
                           utc_offset_hours: float = 0.0) -> frozenset[int]:
    """Regions whose label matches the time-window category of the eval hours.

    Workplaces are hot during work time, entertainment places during
    entertainment time, residential places during home time.
    """
    time_windows = time_windows or TimeWindows.default()
    start, end = window
    wanted: set[str] = set()
    if start < end:
        # every local hour that holds an instant of [start, end)
        tz = timezone(timedelta(hours=utc_offset_hours))
        hour = datetime.fromtimestamp(start, tz).replace(minute=0, second=0, microsecond=0)
        while hour.timestamp() < end:
            w = time_windows.window_of((hour.weekday(), hour.hour))
            if w is not None:
                wanted.add(WINDOW_LABEL[w])
            hour += timedelta(hours=1)
    return frozenset(r for r, lab in region_labels.items() if lab in wanted)


def run_scenario(events: Sequence[VisitEvent], scenario: SimScenario,
                 bin_width: float = DEFAULT_BIN_WIDTH_S) -> SimOutcome:
    """Select publishers per policy, derive eval-window encounters, propagate.

    Publishers never overlap the subscriber set. The random policy draws from
    every taxi seen in the event stream; oracle/history rank taxis active in
    their respective windows.
    """
    eval_events = in_window(events, scenario.eval_window)
    k = scenario.publisher_count
    subs = frozenset(scenario.subscribers)
    if scenario.policy == ORACLE:
        pubs = select_oracle(eval_events, scenario.hot_regions, k, exclude=subs)
    elif scenario.policy == HISTORY:
        if scenario.history_window is None:
            raise ValueError("history policy needs a history_window")
        history_events = in_window(events, scenario.history_window)
        pubs = select_history(history_events, scenario.hot_regions, k, exclude=subs)
    elif scenario.policy == RANDOM:
        population = {e.taxi_id for e in events}
        pubs = select_random(population, k, scenario.rng_seed, exclude=subs)
    else:
        raise ValueError(f"unknown policy {scenario.policy!r}")
    encs = encounters(eval_events, bin_width)
    encs.sort(key=lambda e: (e.bin_start, e.region_id, e.taxi_a, e.taxi_b))
    return propagate(pubs, subs, encs)


def write_results(rows: Sequence[tuple[str, int, SimOutcome]], fh: IO[str]) -> None:
    """One line per run: policy;seed;delivered;total;ratio."""
    for policy, seed, outcome in rows:
        fh.write(f"{policy};{seed};{outcome.delivered};{outcome.total};"
                 f"{repr(outcome.delivery_ratio)}\n")


def summarize(rows: Sequence[tuple[str, int, SimOutcome]]) -> dict[str, float]:
    """Mean delivery ratio per policy plus history-over-random improvement."""
    per_policy: dict[str, list[float]] = {}
    for policy, _, outcome in rows:
        per_policy.setdefault(policy, []).append(outcome.delivery_ratio)
    means = {p: sum(v) / len(v) for p, v in per_policy.items()}
    summary = {f"mean_{p}": m for p, m in sorted(means.items())}
    if RANDOM in means and HISTORY in means and means[RANDOM] > 0:
        summary["history_vs_random_improvement"] = (
            means[HISTORY] - means[RANDOM]) / means[RANDOM]
    return summary


def write_summary(summary: Mapping[str, float], fh: IO[str]) -> None:
    for key in sorted(summary):
        fh.write(f"{key};{repr(summary[key])}\n")
