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
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .functions import TimeWindows, WINDOW_LABEL
from .ingest import left_sum
from .regions import EventTable, VisitEvent, event_table

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
    table = event_table(events)
    bins = np.floor(table.t / bin_width)
    bad = ~np.isfinite(bins)
    if bad.any():
        math.floor(table.t[bad.argmax()] / bin_width)  # raises as a scalar floor would
    order = np.lexsort((bins, table.region))
    region, b, taxi = table.region[order], bins[order], table.taxi[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = (region[1:] != region[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(new_group).tolist()
    ids = [table.taxi_ids[k] for k in taxi.tolist()]
    out: list[EncounterEvent] = []
    for i, j, r, bin_start in zip(starts, starts[1:] + [len(order)], region[new_group].tolist(),
                                  (b[new_group] * bin_width).tolist()):
        taxis = sorted(set(ids[i:j]))
        for a, c in combinations(taxis, 2):
            out.append(EncounterEvent(taxi_a=a, taxi_b=c, region_id=r,
                                      bin_start=bin_start, bin_width=bin_width))
    return out


def in_window(events: Iterable[VisitEvent],
              window: tuple[float, float]) -> EventTable:
    """The events with start <= timestamp < end, in input order."""
    table = event_table(events)
    start, end = window
    return table.select((start <= table.t) & (table.t < end))


def select_oracle(events: Iterable[VisitEvent],
                  hot_regions: frozenset[int] | set[int], k: int,
                  exclude: frozenset[str] | set[str] = frozenset()) -> set[str]:
    """Top-k taxis by hot-region visits among the taxis active in ``events``.

    Ties go to the smaller taxi id. Over the evaluation window's own events
    this is the oracle (an upper bound); over an earlier window's events it is
    the history policy, ``select_history``.
    """
    table = event_table(events)
    counts = np.bincount(table.taxi[np.isin(table.region, list(hot_regions))],
                         minlength=len(table.taxi_ids))
    active = [code for code in table.present_taxi_codes()
              if table.taxi_ids[code] not in exclude]
    if len(active) < k:
        raise SelectionError(f"need {k} active taxis, only {len(active)} available")
    # codes ascend with ids, so a stable sort on the count breaks ties by id
    ranked = sorted(active, key=lambda code: -counts[code])
    return {table.taxi_ids[code] for code in ranked[:k]}


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


@dataclass(frozen=True)
class ScenarioInputs:
    """What every policy run of one scenario shares: its windows' events, the
    population, and the eval-window encounters in time order."""

    eval_events: EventTable
    history_events: EventTable | None
    population: list[str]
    encounter_seq: list[EncounterEvent]


def scenario_inputs(events: Iterable[VisitEvent], eval_window: tuple[float, float],
                    history_window: tuple[float, float] | None = None,
                    bin_width: float = DEFAULT_BIN_WIDTH_S) -> ScenarioInputs:
    """Slice the windows and derive the encounters once for a scenario."""
    table = event_table(events)
    eval_events = in_window(table, eval_window)
    encs = encounters(eval_events, bin_width)
    encs.sort(key=lambda e: (e.bin_start, e.region_id, e.taxi_a, e.taxi_b))
    return ScenarioInputs(
        eval_events=eval_events,
        history_events=None if history_window is None else in_window(table, history_window),
        population=table.present_taxi_ids(),
        encounter_seq=encs)


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
    return propagate(pubs, subs, inputs.encounter_seq)


def run_scenario(events: Sequence[VisitEvent], scenario: SimScenario,
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
