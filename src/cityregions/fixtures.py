"""Bundled three-taxi demo fixture: a tiny curated trace plus a ready config.

Three taxis repeat a two-day routine (home, office, mall, an afternoon
downtown errand, home again) over Monday and Tuesday 2008-02-04/05. Taxis 1
and 2 reach the same downtown block within minutes of each other, so the
DTN stage has a real encounter to work with; the schedule is fully
deterministic, which the pipeline determinism tests rely on.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import numpy as np

from .ingest import Trace, write_canonical
from .trajectory import great_circle

# Monday 2008-02-04 00:00:00 UTC (a multiple of the 300 s encounter bin)
FIXTURE_T0 = int(datetime(2008, 2, 4, tzinfo=timezone.utc).timestamp())

PLACES = {
    "home_a": (39.9100, 116.3200),
    "home_b": (39.9140, 116.3260),
    "home_c": (39.9860, 116.3320),
    "office": (39.9700, 116.4500),
    "office2": (39.9740, 116.4560),
    "mall": (39.9300, 116.4700),
    "downtown": (39.9660, 116.4430),
    "uptown": (39.9900, 116.4800),
}

# per-taxi daily stop schedule: (place, start, end) in seconds from midnight
SCHEDULES = {
    "1": (("home_a", 27000, 27900), ("office", 29400, 30240),
          ("mall", 43200, 44160), ("downtown", 54300, 55200),
          ("home_a", 66600, 67800)),
    "2": (("home_b", 27300, 28200), ("office", 29700, 30660),
          ("mall", 43500, 44280), ("downtown", 54360, 55320),
          ("home_b", 66900, 68400)),
    "3": (("home_c", 27600, 28500), ("office2", 30000, 30900),
          ("mall", 43800, 44640), ("uptown", 55800, 56700),
          ("home_c", 67200, 68100)),
}

# ~10 m deterministic wobble while parked, well inside the 50 m stop radius
_JITTER = ((0.0, 0.0), (7e-5, 4e-5), (-5e-5, 8e-5), (3e-5, -6e-5), (-7e-5, -3e-5))

_STOP_STEP = 180
_DRIVE_STEP = 240


# a fix: (timestamp, lat, lon)
_Fix = tuple[float, float, float]


def _dwell_fixes(place: str, start: int, end: int) -> list[_Fix]:
    lat, lon = PLACES[place]
    fixes = []
    t = start
    i = 0
    while t <= end:
        dlat, dlon = _JITTER[i % len(_JITTER)]
        fixes.append((float(t), round(lat + dlat, 6), round(lon + dlon, 6)))
        i += 1
        t += _STOP_STEP
    if fixes[-1][0] != end:
        fixes.append((float(end), lat, lon))
    return fixes


def _drive_fixes(src: str, dst: str, start: int, end: int) -> list[_Fix]:
    lat0, lon0 = PLACES[src]
    lat1, lon1 = PLACES[dst]
    fixes = []
    t = start + _DRIVE_STEP
    while t < end:
        f = (t - start) / (end - start)
        lat = round(lat0 + f * (lat1 - lat0), 6)
        lon = round(lon0 + f * (lon1 - lon0), 6)
        # stay clear of the destination's stop radius so the dwell anchors
        # on the scheduled arrival point, not on a late approach fix
        if great_circle(lat, lon, lat1, lon1) > 60.0:
            fixes.append((float(t), lat, lon))
        t += _DRIVE_STEP
    return fixes


def three_taxi_trace() -> Trace:
    """The full fixture trace: two identical days for each of three taxis."""
    fixes: list[_Fix] = []
    offsets = [0]
    for stops in SCHEDULES.values():  # taxi ids ascend, as a Trace lists them
        for day in range(2):
            base = FIXTURE_T0 + day * 86400
            for i, (place, start, end) in enumerate(stops):
                fixes.extend(_dwell_fixes(place, base + start, base + end))
                if i + 1 < len(stops):
                    nxt_place, nxt_start, _ = stops[i + 1]
                    fixes.extend(_drive_fixes(place, nxt_place, base + end, base + nxt_start))
        offsets.append(len(fixes))
    return Trace(tuple(SCHEDULES), np.array(offsets),
                 *(np.array(column, dtype=np.float64) for column in zip(*fixes)))


def fixture_config(out_dir: str, trace_path: str) -> dict:
    """Pipeline config tuned to the fixture's size (one publisher, one subscriber)."""
    day2 = FIXTURE_T0 + 86400
    return {
        "datasets": [{"path": trace_path, "format": "canonical"}],
        "bounds": {"lat_min": 39.90, "lat_max": 40.00,
                   "lon_min": 116.30, "lon_max": 116.50},
        "utc_offset_hours": 0,
        "segment_gap_s": 1800,
        "stop_distance_m": 50.0,
        "stop_duration_s": 360.0,
        "quadtree": {"threshold_fraction": 0.1, "depth_cap": 16,
                     "visit_source": "points"},
        "minsup": 0.2,
        "dtn": {
            "bin_width_s": 300.0,
            "publishers": 1,
            "subscribers": 1,
            "runs": 2,
            "policies": ["oracle", "history", "random"],
            "scenarios": [{
                "name": "tuesday_afternoon",
                "eval_start": day2 + 15 * 3600,
                "eval_end": day2 + 16 * 3600,
                "history_start": FIXTURE_T0 + 15 * 3600,
                "history_end": FIXTURE_T0 + 16 * 3600,
            }],
        },
        "out_dir": out_dir,
        "rng_seed": 7,
    }


def write_fixture(directory: str) -> tuple[str, str]:
    """Materialize trace + config under `directory`; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, "three_taxi_trace.txt")
    config_path = os.path.join(directory, "config.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        write_canonical(three_taxi_trace(), fh)
    out_dir = os.path.join(directory, "out")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(fixture_config(out_dir, trace_path), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trace_path, config_path
