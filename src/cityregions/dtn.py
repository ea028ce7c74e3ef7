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
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .functions import _EPOCH_ORDINAL, TimeWindows, WINDOW_LABEL, local_hour_key
from .ingest import _local_us, left_sum
from .regions import EventTable

DEFAULT_BIN_WIDTH_S = 300.0

ORACLE = "oracle"
HISTORY = "history"
RANDOM = "random"
POLICIES = (ORACLE, HISTORY, RANDOM)


class SelectionError(ValueError):
    """Not enough candidate taxis to select the requested carrier count."""


@dataclass(frozen=True)
class Encounters:
    """Co-visits as columns: row i is taxis ``taxi_ids[a[i]]`` and
    ``taxi_ids[b[i]]`` in region ``region[i]`` in the bin from ``bin_start[i]``."""

    taxi_ids: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    region: np.ndarray
    bin_start: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


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


def encounters(events: EventTable,
               bin_width: float = DEFAULT_BIN_WIDTH_S) -> Encounters:
    """Pairwise co-visits per (region, time bin), one row per pair with a < b,
    ordered by region, bin, ids."""
    if not 0 < bin_width < math.inf:  # an infinite bin has no start
        raise ValueError("bin_width must be positive and finite")
    bins = np.floor(events.t / bin_width)
    bad = ~np.isfinite(bins)
    if bad.any():
        math.floor(events.t[bad.argmax()] / bin_width)  # raises as a scalar floor would
    order = np.lexsort((events.taxi, bins, events.region))
    region, b, taxi = events.region[order], bins[order], events.taxi[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = (region[1:] != region[:-1]) | (b[1:] != b[:-1])
    keep = new_group | (taxi != np.roll(taxi, 1))  # one row per taxi in a group
    region, b, taxi, new_group = region[keep], b[keep], taxi[keep], new_group[keep]
    n = np.arange(len(taxi))
    group_end = np.append(np.flatnonzero(new_group)[1:], len(taxi))
    later = group_end[np.cumsum(new_group) - 1] - n - 1  # rows after row i in its group
    first = np.repeat(n, later)  # row i's pairs are (i, i + 1) .. (i, group end - 1)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return Encounters(events.taxi_ids, taxi[first], taxi[second], region[first],
                      b[first] * bin_width)


def in_window(events: EventTable, window: tuple[float, float]) -> EventTable:
    """The events with start <= timestamp < end, in input order."""
    start, end = window
    return events.select((start <= events.t) & (events.t < end))


def select_oracle(events: EventTable,
                  hot_regions: frozenset[int] | set[int], k: int,
                  exclude: frozenset[str] | set[str] = frozenset()) -> set[str]:
    """Top-k taxis by hot-region visits among the taxis active in ``events``.

    Ties go to the smaller taxi id. Over the evaluation window's own events
    this is the oracle (an upper bound); over an earlier window's events it is
    the history policy, ``select_history``.
    """
    counts = np.bincount(events.taxi[np.isin(events.region, list(hot_regions))],
                         minlength=len(events.taxi_ids))
    active = [code for code in events.present_taxi_codes()
              if events.taxi_ids[code] not in exclude]
    if len(active) < k:
        raise SelectionError(f"need {k} active taxis, only {len(active)} available")
    # codes ascend with ids, so a stable sort on the count breaks ties by id
    ranked = sorted(active, key=lambda code: -counts[code])
    return {events.taxi_ids[code] for code in ranked[:k]}


select_history = select_oracle


def select_random(population: Iterable[str], k: int, rng_seed: int,
                  exclude: frozenset[str] | set[str] = frozenset()) -> set[str]:
    pool = sorted(set(population) - set(exclude))
    if len(pool) < k:
        raise SelectionError(f"need {k} taxis, only {len(pool)} available")
    return set(random.Random(rng_seed).sample(pool, k))


def propagate(publishers: Iterable[str], subscribers: Iterable[str],
              encounters: Encounters) -> SimOutcome:
    """Deliver each publisher's copy at its first subscriber encounter: the least
    ``bin_start`` of its rows with a subscriber, in any row order. Only direct
    publisher-to-subscriber contact delivers; no relaying, no copy expiry."""
    pubs = set(publishers)
    taxi_ids = encounters.taxi_ids
    code = {tid: k for k, tid in enumerate(taxi_ids)}
    is_pub, is_sub = np.zeros((2, len(taxi_ids)), dtype=bool)
    is_pub[[code[t] for t in pubs if t in code]] = True
    is_sub[[code[t] for t in set(subscribers) if t in code]] = True
    first = np.full(len(taxi_ids), np.nan)
    for x, y in ((encounters.a, encounters.b), (encounters.b, encounters.a)):
        hit = is_pub[x] & is_sub[y]
        np.fmin.at(first, x[hit], encounters.bin_start[hit])  # fmin passes over NaN
    reached = {tid: t for tid, t in zip(taxi_ids, first.tolist()) if not math.isnan(t)}
    total = len(pubs)
    return SimOutcome(delivered=len(reached), total=total,
                      delivery_ratio=len(reached) / total if total else 0.0,
                      delivery_times={p: reached.get(p) for p in sorted(pubs)})


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
        # every local hour since the epoch that holds an instant of [start,
        # end); at a fixed offset the first 168 of them hold every (weekday,
        # hour) slot. local_hour_key raises where datetime refuses start.
        day, hour = local_hour_key(start, utc_offset_hours)
        first = (day.toordinal() - _EPOCH_ORDINAL) * 24 + hour
        epoch_us, _ = _local_us(1970, 1, 1, 0, 0, 0, utc_offset_hours)  # 1970-01-01 00:00 local
        for h in range(first, first + 7 * 24):
            if (epoch_us + h * 3_600_000_000) / 1_000_000 >= end:  # the hour's start
                break
            w = time_windows.window_of(((h // 24 + 3) % 7, h % 24))  # 1970-01-01 was a Thursday
            if w is not None:
                wanted.add(WINDOW_LABEL[w])
    return frozenset(r for r, lab in region_labels.items() if lab in wanted)


@dataclass(frozen=True)
class ScenarioInputs:
    """What every policy run of one scenario shares: its windows' events, the
    population, and the eval-window encounters."""

    eval_events: EventTable
    history_events: EventTable | None
    population: list[str]
    encounters: Encounters


def scenario_inputs(events: EventTable, eval_window: tuple[float, float],
                    history_window: tuple[float, float] | None = None,
                    bin_width: float = DEFAULT_BIN_WIDTH_S) -> ScenarioInputs:
    """Slice the windows and derive the encounters once for a scenario."""
    eval_events = in_window(events, eval_window)
    return ScenarioInputs(
        eval_events=eval_events,
        history_events=None if history_window is None else in_window(events, history_window),
        population=events.present_taxi_ids(),
        encounters=encounters(eval_events, bin_width))


def run_policy(inputs: ScenarioInputs, scenario: SimScenario) -> SimOutcome:
    """Select the scenario's publishers per its policy and propagate.

    ``inputs`` must come from the scenario's own windows and bin width.
    """
    k = scenario.publisher_count
    subs = frozenset(scenario.subscribers)
    if scenario.policy == ORACLE:
        pubs = select_oracle(inputs.eval_events, scenario.hot_regions, k, exclude=subs)
    elif scenario.policy == HISTORY:
        if inputs.history_events is None:
            raise ValueError("history policy needs a history_window")
        pubs = select_history(inputs.history_events, scenario.hot_regions, k, exclude=subs)
    elif scenario.policy == RANDOM:
        pubs = select_random(inputs.population, k, scenario.rng_seed, exclude=subs)
    else:
        raise ValueError(f"unknown policy {scenario.policy!r}")
    return propagate(pubs, subs, inputs.encounters)


def run_scenario(events: EventTable, scenario: SimScenario,
                 bin_width: float = DEFAULT_BIN_WIDTH_S) -> SimOutcome:
    """Select publishers per policy, derive eval-window encounters, propagate.

    Publishers never overlap the subscriber set. The random policy draws from
    every taxi seen in the event stream; oracle/history rank taxis active in
    their respective windows.
    """
    return run_policy(scenario_inputs(events, scenario.eval_window,
                                      scenario.history_window, bin_width), scenario)


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
    means = {p: left_sum(v) / len(v) for p, v in per_policy.items()}
    summary = {f"mean_{p}": m for p, m in sorted(means.items())}
    if RANDOM in means and HISTORY in means and means[RANDOM] > 0:
        summary["history_vs_random_improvement"] = (
            means[HISTORY] - means[RANDOM]) / means[RANDOM]
    return summary


def write_summary(summary: Mapping[str, float], fh: IO[str]) -> None:
    for key in sorted(summary):
        fh.write(f"{key};{repr(summary[key])}\n")
