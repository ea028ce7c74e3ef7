"""Ready-made pipeline configs for the public taxi corpora.

The Beijing preset carries the two evaluation scenarios used for the
target-set comparison: Sunday 2008-02-03 15:00-16:00 local (with the
Saturday hour as history, entertainment places hot) and Tuesday 2008-02-05
15:00-16:00 (Monday hour as history, workplaces hot). Point the dataset
entries at a local T-Drive download to run it.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

BEIJING_UTC_OFFSET_HOURS = 8.0

# the city box used when clipping the corpus
BEIJING_BOUNDS = {"lat_min": 39.41, "lat_max": 41.08,
                  "lon_min": 115.37, "lon_max": 117.5}


def _beijing_epoch(year: int, month: int, day: int, hour: int) -> float:
    tz = timezone(timedelta(hours=BEIJING_UTC_OFFSET_HOURS))
    return datetime(year, month, day, hour, tzinfo=tz).timestamp()


def beijing_scenarios() -> list[dict]:
    """The Sunday-afternoon and Tuesday-afternoon evaluation hours."""
    return [
        {
            "name": "sunday_entertainment",
            "eval_start": _beijing_epoch(2008, 2, 3, 15),
            "eval_end": _beijing_epoch(2008, 2, 3, 16),
            "history_start": _beijing_epoch(2008, 2, 2, 15),
            "history_end": _beijing_epoch(2008, 2, 2, 16),
        },
        {
            "name": "tuesday_work",
            "eval_start": _beijing_epoch(2008, 2, 5, 15),
            "eval_end": _beijing_epoch(2008, 2, 5, 16),
            "history_start": _beijing_epoch(2008, 2, 4, 15),
            "history_end": _beijing_epoch(2008, 2, 4, 16),
        },
    ]


def beijing_config(dataset_paths: list[str], out_dir: str,
                   rng_seed: int = 0) -> dict:
    """Full pipeline config for the T-Drive corpus (one file per taxi)."""
    return {
        "datasets": [{"path": p, "format": "beijing"} for p in dataset_paths],
        "bounds": dict(BEIJING_BOUNDS),
        "utc_offset_hours": BEIJING_UTC_OFFSET_HOURS,
        "segment_gap_s": 1800,
        "stop_distance_m": 50.0,
        "stop_duration_s": 360.0,
        "quadtree": {"threshold_fraction": 0.01, "depth_cap": 16,
                     "visit_source": "points"},
        "minsup": 0.2,
        "dtn": {
            "bin_width_s": 300.0,
            "publishers": 100,
            "subscribers": 100,
            "runs": 10,
            "policies": ["oracle", "history", "random"],
            "scenarios": beijing_scenarios(),
        },
        "out_dir": out_dir,
        "rng_seed": rng_seed,
    }
