"""Synthetic-city generators with planted ground truth.

Two event-level generators back the functional-labeling and DTN tests:
one plants workplace/entertainment/residential hotspots on a weekly
schedule, the other produces a two-day trace whose hot-region visitation
persists from one day to the next (regular commuters vs wanderers). Both
return their visits as an EventTable of taxis ``t000``, ``t001``, ...
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .columns import TaxiCodes
from .functions import ENTERTAINMENT, RESIDENTIAL, TimeWindows, WORKPLACE
from .regions import EventTable

# Monday 2008-02-04 00:00:00 UTC; the synthetic city runs on UTC local time.
SYNTH_T0 = int(datetime(2008, 2, 4, tzinfo=timezone.utc).timestamp())

OFFICE_REGION = 0
MALL_REGION = 1
SUBURB_REGION = 2

PLANTED_LABELS = {
    OFFICE_REGION: WORKPLACE,
    MALL_REGION: ENTERTAINMENT,
    SUBURB_REGION: RESIDENTIAL,
}


def _visits(n_taxis: int, taxi: list[int], region: list[int], t: list[float]) -> EventTable:
    """Visits by taxi number k, named ``t{k:03d}``, as an EventTable of the
    taxis with a visit."""
    codes = TaxiCodes()
    by_number = codes.encode([f"t{k:03d}" for k in range(n_taxis)])
    return EventTable(*codes.ranked(by_number[np.array(taxi, dtype=np.int64)]),
                      np.array(region, dtype=np.int64), np.array(t, dtype=np.float64),
                      np.ones(len(t), dtype=bool))


def planted_city_events(seed: int,
                        n_taxis: int = 30,
                        n_regions: int = 12,
                        days: int = 7,
                        in_window_rate: float = 0.75,
                        off_window_rate: float = 0.04,
                        background_rate: float = 0.05,
                        active_rate: float = 0.9) -> EventTable:
    """One week of hourly visits with three planted hotspots.

    Region 0 draws visits during work hours, region 1 during entertainment
    hours, region 2 during home hours; regions 3+ are low-rate background.
    Classification should recover PLANTED_LABELS.
    """
    if n_regions < 3:
        raise ValueError("need at least the three planted regions")
    rng = random.Random(seed)
    windows = TimeWindows.default()
    window_region = {"work": OFFICE_REGION, "entertainment": MALL_REGION,
                     "home": SUBURB_REGION}
    taxis: list[int] = []
    regions: list[int] = []
    stamps: list[float] = []
    for day in range(days):
        dow = day % 7
        for hour in range(24):
            active_window = windows.window_of((dow, hour))
            hour_start = SYNTH_T0 + day * 86400 + hour * 3600
            for taxi in range(n_taxis):
                if rng.random() >= active_rate:
                    continue
                visited: list[int] = []
                for region in (OFFICE_REGION, MALL_REGION, SUBURB_REGION):
                    hot = (active_window is not None
                           and window_region[active_window] == region)
                    rate = in_window_rate if hot else off_window_rate
                    if rng.random() < rate:
                        visited.append(region)
                for region in range(3, n_regions):
                    if rng.random() < background_rate:
                        visited.append(region)
                for region in visited:
                    taxis.append(taxi)
                    regions.append(region)
                    stamps.append(hour_start + rng.uniform(0.0, 3600.0))
    return _visits(n_taxis, taxis, regions, stamps)


@dataclass(frozen=True)
class DtnTrace:
    """Two-day synthetic trace for the target-set experiment."""

    events: EventTable
    history_window: tuple[float, float]
    eval_window: tuple[float, float]
    hot_regions: frozenset[int]
    population: frozenset[str]


def persistent_dtn_trace(seed: int,
                         n_taxis: int = 500,
                         n_regulars: int = 150,
                         n_hot_regions: int = 3,
                         n_cold_regions: int = 120,
                         hour: int = 15,
                         bin_width: float = 300.0,
                         regular_hot_rate: tuple[float, float] = (0.06, 0.18),
                         daily_jitter: float = 0.05,
                         regular_cold_rate: float = 0.05,
                         wanderer_hot_rate: float = 0.005,
                         wanderer_cold_rate: float = 0.06,
                         day_persistent: bool = True) -> DtnTrace:
    """Two-day trace with tunable hot-region visitation: day 0 is history,
    day 1 is eval.

    With day_persistent, regular taxis keep a per-taxi hot-visit propensity
    across both days (plus daily jitter, so the oracle's future knowledge
    beats the history ranking) while wanderers drift through the many cold
    regions. Without it, each day draws a fresh regular set, making the
    history window uninformative about the eval window.
    """
    rng = random.Random(seed)
    hot = list(range(n_hot_regions))
    cold = list(range(n_hot_regions, n_hot_regions + n_cold_regions))
    all_taxis = list(range(n_taxis))
    persistent_regulars = all_taxis[:n_regulars]
    base_rate = {t: rng.uniform(*regular_hot_rate) for t in persistent_regulars}
    bins_per_window = int(3600.0 // bin_width)

    taxis: list[int] = []
    regions: list[int] = []
    stamps: list[float] = []
    for day in range(2):
        window_start = SYNTH_T0 + day * 86400 + hour * 3600
        if day_persistent:
            regulars = persistent_regulars
            day_rate = {
                t: min(0.9, max(0.01,
                                base_rate[t] + rng.uniform(-daily_jitter, daily_jitter)))
                for t in regulars}
        else:
            regulars = rng.sample(all_taxis, n_regulars)
            day_rate = {t: rng.uniform(*regular_hot_rate) for t in regulars}
        regular_set = set(regulars)
        for b in range(bins_per_window):
            bin_start = window_start + b * bin_width
            for taxi in range(n_taxis):
                if taxi in regular_set:
                    p_hot, p_cold = day_rate[taxi], regular_cold_rate
                else:
                    p_hot, p_cold = wanderer_hot_rate, wanderer_cold_rate
                u = rng.random()
                if u < p_hot:
                    region = rng.choice(hot)
                elif u < p_hot + p_cold:
                    region = rng.choice(cold)
                else:
                    continue
                taxis.append(taxi)
                regions.append(region)
                stamps.append(bin_start + rng.uniform(0.0, bin_width))

    day0 = float(SYNTH_T0 + hour * 3600)
    day1 = float(SYNTH_T0 + 86400 + hour * 3600)
    events = _visits(n_taxis, taxis, regions, stamps)
    return DtnTrace(events=events,
                    history_window=(day0, day0 + 3600.0),
                    eval_window=(day1, day1 + 3600.0),
                    hot_regions=frozenset(hot),
                    population=frozenset(events.present_taxi_ids()))


def correlated_grid(seed: int, n_cells: int = 100,
                    base_max: int = 400, noise: int = 25) -> tuple[list[int], list[int]]:
    """Paired cell counts: visits = intersections + bounded noise."""
    rng = random.Random(seed)
    intersections = [rng.randrange(0, base_max) for _ in range(n_cells)]
    visits = [max(0, c + rng.randrange(-noise, noise + 1)) for c in intersections]
    return intersections, visits
