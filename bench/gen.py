"""Seeded inputs for the three benchmark workloads.

The program under test only ever sees the files written here.

* ``tdrive_week`` -- a raw trace shaped like T-Drive (Yuan et al. 2010):
  beijing format ``id,YYYY-mm-dd HH:MM:SS,lon,lat`` in local UTC+8 wall
  time, one file per taxi, a fix every ~177 s, Sat 2008-02-02 through Tue
  2008-02-05. Taxis work day or night shifts (~10 h of fixes a day, close to
  T-Drive's ~207 fixes per taxi-day) and drive between dwells. Hubs are
  planted on a weekly schedule: a CBD with a weekday-morning rush, one mall
  busy on weekend afternoons and one on weekday evenings, and two home
  compounds where night-shift drivers park after midnight. A few duplicate,
  malformed and out-of-city lines exercise the ingest accounting.
* ``planted_city`` -- ``events.txt`` from ``synth.planted_city_events`` and a
  uniform 64-leaf ``tree.txt``, the artifacts the ``functions`` and ``dtn``
  stages re-read when entered directly.
* ``fit_batch`` -- sample files drawn from the four candidate families with
  the shapes the acceptance tests use.

Every generator is a pure function of its seed: the same seed gives the same
bytes.
"""

from __future__ import annotations

import json
import math
import os
import random
from datetime import datetime, timedelta, timezone

import numpy as np

from cityregions import presets, regions, synth
from cityregions.ingest import CityBounds

# ---------------------------------------------------------------- tdrive_week

TDRIVE_TAXIS = 500
TDRIVE_DAYS = 4
LOCAL_TZ = timezone(timedelta(hours=presets.BEIJING_UTC_OFFSET_HOURS))
T0_LOCAL = datetime(2008, 2, 2, tzinfo=LOCAL_TZ)  # Saturday 00:00 local
T0_UTC = int(T0_LOCAL.timestamp())
FIRST_DOW = T0_LOCAL.weekday()  # 5 = Saturday

FIX_S = 177.0
FIX_JITTER = 0.1  # interval drawn from FIX_S * U(1 - j, 1 + j)
# A dwell long enough that its first and last fix are more than the 360 s
# stop threshold apart whatever the interval jitter: 760 - 2 * 195 > 360.
DWELL_S = (760.0, 1000.0)
SPEED_MPS = (4.0, 9.0)
PARK_SIGMA_M = 4.0
DRIVE_SIGMA_M = 8.0
DAY_SHIFT_SHARE = 0.6
SQRT3 = math.sqrt(3.0)
DAY_STAMPS = [(T0_LOCAL + timedelta(days=d)).strftime("%Y-%m-%d") for d in range(TDRIVE_DAYS + 2)]

# Where taxis roam: central Beijing, well inside the preset's clip box.
AREA = (39.80, 40.02, 116.25, 116.55)
M_PER_DEG_LAT = 111_195.0

# Hub name -> (approximate lat, lon, planted label). Each is snapped to the
# centre of a depth-11 cell of the preset root box, so no quad-tree split
# line of depth <= 11 passes within ~44 m of it; the schedule below keeps
# every hub under 1% of all fixes, so its leaf is never split further and
# all of its dwells land in one region.
HUBS = {
    "cbd": (39.915, 116.460, "workplace"),
    "mall_weekend": (39.955, 116.330, "entertainment"),
    "mall_evening": (39.880, 116.400, "entertainment"),
    "home_north": (40.000, 116.410, "residential"),
    "home_south": (39.835, 116.300, "residential"),
}
HOMES = ("home_north", "home_south")


def _snap(lat: float, lon: float, depth: int = 11) -> tuple[float, float]:
    b = presets.BEIJING_BOUNDS
    dlat = (b["lat_max"] - b["lat_min"]) / 2 ** depth
    dlon = (b["lon_max"] - b["lon_min"]) / 2 ** depth
    i = math.floor((lat - b["lat_min"]) / dlat)
    j = math.floor((lon - b["lon_min"]) / dlon)
    return b["lat_min"] + (i + 0.5) * dlat, b["lon_min"] + (j + 0.5) * dlon


HUB_SITES = {name: _snap(lat, lon) for name, (lat, lon, _) in HUBS.items()}


def _hub_probability(hub: str, dow: int, hour: int) -> float:
    """Chance that a trip starting at (day-of-week, local hour) ends at a hub.

    Peaks are short so each hub stays below 1% of the trace's fixes, yet
    strong enough that over 20% of the taxis active in a peak hour arrive
    there, which is what Apriori at minsup 0.2 needs.
    """
    weekday = dow < 5
    evening_or_weekend = (weekday and 17 <= hour < 23) or (not weekday and 8 <= hour < 22)
    if hub == "cbd":
        if weekday and 8 <= hour < 10:
            return 0.15
        return 0.005 if weekday and 10 <= hour < 17 else 0.001
    if hub == "mall_weekend":
        if not weekday and 15 <= hour < 17:
            return 0.14
        return 0.003 if evening_or_weekend else 0.001
    if hub == "mall_evening":
        if weekday and 19 <= hour < 22:
            return 0.18
        return 0.003 if evening_or_weekend else 0.001
    return 0.0  # homes are reached only at the end of a night shift


def _offset_m(lat: float, lon: float, north_m: float, east_m: float) -> tuple[float, float]:
    return (lat + north_m / M_PER_DEG_LAT,
            lon + east_m / (M_PER_DEG_LAT * math.cos(math.radians(lat))))


def _distance_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    dn = (b[0] - a[0]) * M_PER_DEG_LAT
    de = (b[1] - a[1]) * M_PER_DEG_LAT * math.cos(math.radians(a[0]))
    return math.hypot(dn, de)


def _reflect(x: float, lo: float, hi: float) -> float:
    while not lo <= x <= hi:
        x = 2 * lo - x if x < lo else 2 * hi - x
    return x


class _Shift:
    """One taxi shift as a list of dwell and drive phases (local seconds)."""

    def __init__(self, rng: random.Random, start: float, pos: tuple[float, float]):
        self.rng = rng
        self.t = start
        self.pos = pos
        self.phases: list[tuple] = []
        self.dwells: list[tuple[float, float, float, float, str]] = []

    def dwell(self, place: str) -> None:
        d = self.rng.uniform(*DWELL_S)
        self.phases.append(("dwell", self.t, self.t + d, self.pos))
        self.dwells.append((self.t, self.t + d, self.pos[0], self.pos[1], place))
        self.t += d

    def drive(self, dest: tuple[float, float]) -> None:
        d = max(_distance_m(self.pos, dest) / self.rng.uniform(*SPEED_MPS), 240.0)
        self.phases.append(("drive", self.t, self.t + d, self.pos, dest))
        self.t += d
        self.pos = dest

    def next_destination(self) -> tuple[tuple[float, float], str]:
        day, sec = divmod(self.t, 86400.0)
        dow, hour = (FIRST_DOW + int(day)) % 7, int(sec // 3600)
        u = self.rng.random()
        for hub in HUB_SITES:
            p = _hub_probability(hub, dow, hour)
            if u < p:
                return HUB_SITES[hub], hub
            u -= p
        dist = min(max(self.rng.lognormvariate(math.log(3000.0), 0.6), 300.0), 15000.0)
        theta = self.rng.uniform(0.0, 2 * math.pi)
        lat, lon = _offset_m(self.pos[0], self.pos[1],
                             dist * math.cos(theta), dist * math.sin(theta))
        return ((_reflect(lat, AREA[0], AREA[1]), _reflect(lon, AREA[2], AREA[3])),
                "background")


def _random_spot(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(AREA[0], AREA[1]), rng.uniform(AREA[2], AREA[3])


def _plan_shift(rng: random.Random, day: int, night: bool,
                home: str) -> _Shift:
    base = day * 86400.0
    if night:
        start, end = base + rng.uniform(13.5, 14.5) * 3600, base + rng.uniform(23.25, 25.0) * 3600
    else:
        start, end = base + rng.uniform(6.75, 8.0) * 3600, base + rng.uniform(17.0, 18.0) * 3600
    shift = _Shift(rng, start, _random_spot(rng))
    shift.dwell("background")
    while shift.t < end:
        dest, place = shift.next_destination()
        shift.drive(dest)
        shift.dwell(place)
    if night:
        shift.drive(HUB_SITES[home])
        shift.dwell(home)
    return shift


def _unit_noise(rng: random.Random) -> float:
    """Zero mean, unit variance, bounded by +-3.5: a sum of four uniforms."""
    r = rng.random
    return (r() + r() + r() + r() - 2.0) * SQRT3


def _jitter(rng: random.Random, pos: tuple[float, float], sigma_m: float) -> tuple[float, float]:
    return _offset_m(pos[0], pos[1], _unit_noise(rng) * sigma_m, _unit_noise(rng) * sigma_m)


def _local_stamp(t: int) -> str:
    day, sec = divmod(t, 86400)
    h, rem = divmod(sec, 3600)
    return f"{DAY_STAMPS[day]} {h:02d}:{rem // 60:02d}:{rem % 60:02d}"


def _shift_lines(rng: random.Random, tid: str, shift: _Shift) -> list[str]:
    """Fixes every ~177 s over the shift, with a little T-Drive dirt on drives."""
    lines = []
    phases = shift.phases
    k = 0
    t = phases[0][1] + rng.uniform(0.0, 30.0)
    end = phases[-1][2]
    while t <= end:
        while phases[k][2] < t:
            k += 1
        ph = phases[k]
        ts = int(t)
        if ph[0] == "dwell":
            lat, lon = _jitter(rng, ph[3], PARK_SIGMA_M)
            dirt = 1.0
        else:
            f = (t - ph[1]) / (ph[2] - ph[1])
            a, b = ph[3], ph[4]
            lat, lon = _jitter(rng, (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])),
                               DRIVE_SIGMA_M)
            dirt = rng.random()
        line = f"{tid},{_local_stamp(ts)},{lon:.5f},{lat:.5f}"
        if dirt < 0.001:  # receiver glitch at null island: clipped by ingest
            line = f"{tid},{_local_stamp(ts)},0.00000,0.00000"
        elif dirt < 0.002:  # truncated record: rejected by ingest
            line = line.rsplit(",", 1)[0]
        lines.append(line)
        if 0.002 <= dirt < 0.006:  # repeated record: deduplicated by ingest
            lines.append(line)
        t = ts + FIX_S * rng.uniform(1.0 - FIX_JITTER, 1.0 + FIX_JITTER)
    return lines


def write_tdrive_week(root: str, seed: int, n_taxis: int = TDRIVE_TAXIS,
                      carriers: int = 100) -> dict:
    """Write input/<taxi>.txt, config.json and truth/ under root.

    The config is ``presets.beijing_config`` as is; ``carriers`` (publishers
    and subscribers, 100 in the preset) shrinks only for tiny test traces.
    """
    rng = random.Random(seed)
    os.makedirs(os.path.join(root, "input"), exist_ok=True)
    os.makedirs(os.path.join(root, "truth"), exist_ok=True)
    paths = []
    n_lines = 0
    with open(os.path.join(root, "truth", "dwells.txt"), "w", encoding="utf-8") as truth:
        for taxi in range(1, n_taxis + 1):
            tid = str(taxi)
            night = rng.random() >= DAY_SHIFT_SHARE
            home = rng.choice(HOMES)
            lines = []
            for day in range(TDRIVE_DAYS):
                shift = _plan_shift(rng, day, night, home)
                lines += _shift_lines(rng, tid, shift)
                for start, end, lat, lon, place in shift.dwells:
                    truth.write(f"{tid};{T0_UTC + start!r};{T0_UTC + end!r};"
                                f"{lat!r};{lon!r};{place}\n")
            rel = f"input/{tid}.txt"
            with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            paths.append(rel)
            n_lines += len(lines)
    hubs = {name: {"lat": HUB_SITES[name][0], "lon": HUB_SITES[name][1], "label": label}
            for name, (_, _, label) in HUBS.items()}
    with open(os.path.join(root, "truth", "hubs.json"), "w", encoding="utf-8") as fh:
        json.dump(hubs, fh, indent=1, sort_keys=True)
    cfg = presets.beijing_config(paths, "out")
    cfg["dtn"]["publishers"] = cfg["dtn"]["subscribers"] = carriers
    with open(os.path.join(root, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return {"config": "config.json", "points": n_lines, "point_kind": "raw fixes",
            "taxis": n_taxis, "scenarios": len(cfg["dtn"]["scenarios"]),
            "runs": cfg["dtn"]["runs"], "policies": len(cfg["dtn"]["policies"])}


# --------------------------------------------------------------- planted_city

PLANTED_TAXIS = 1000
PLANTED_REGIONS = 64


def _utc(day: int, hour: int) -> float:
    return float(synth.SYNTH_T0 + day * 86400 + hour * 3600)


def planted_config(carriers: int = 100) -> dict:
    """Stage config for the synthetic week: UTC clock, paper-scale DTN.

    The eval hours are Tuesday and Sunday 15:00 with the previous day's
    15:00 hour as history. ``functions`` and ``dtn`` never read the dataset
    entry; the config format requires one.
    """
    b = presets.BEIJING_BOUNDS
    scenarios = [
        {"name": "tuesday_work", "eval_start": _utc(1, 15), "eval_end": _utc(1, 16),
         "history_start": _utc(0, 15), "history_end": _utc(0, 16)},
        {"name": "sunday_entertainment", "eval_start": _utc(6, 15), "eval_end": _utc(6, 16),
         "history_start": _utc(5, 15), "history_end": _utc(5, 16)},
    ]
    return {
        "datasets": [{"path": "out/events.txt", "format": "canonical"}],
        "bounds": dict(b),
        "utc_offset_hours": 0.0,
        "minsup": 0.2,
        "dtn": {"bin_width_s": 300.0, "publishers": carriers, "subscribers": carriers,
                "runs": 10,
                "policies": ["oracle", "history", "random"], "scenarios": scenarios},
        "out_dir": "out",
        "rng_seed": 0,
    }


def uniform_tree(bounds: CityBounds, depth: int = 3) -> regions.QuadNode:
    """A complete quad-tree with 4**depth leaves, ids 0 .. 4**depth - 1."""
    side = 2 ** depth
    dlat = (bounds.lat_max - bounds.lat_min) / side
    dlon = (bounds.lon_max - bounds.lon_min) / side
    centres = [(bounds.lat_min + (i + 0.5) * dlat, bounds.lon_min + (j + 0.5) * dlon)
               for i in range(side) for j in range(side)]
    return regions.build_quadtree(centres, bounds, 1.0 / len(centres), depth)


def write_planted_city(root: str, seed: int, n_taxis: int = PLANTED_TAXIS,
                       carriers: int = 100) -> dict:
    """Write seed/events.txt, seed/tree.txt and config.json under root."""
    events = synth.planted_city_events(seed, n_taxis=n_taxis,
                                       n_regions=PLANTED_REGIONS, days=7)
    cfg = planted_config(carriers)
    tree = uniform_tree(CityBounds(**cfg["bounds"]))
    os.makedirs(os.path.join(root, "seed"), exist_ok=True)
    with open(os.path.join(root, "seed", "events.txt"), "w", encoding="utf-8") as fh:
        regions.write_events(events, fh)
    with open(os.path.join(root, "seed", "tree.txt"), "w", encoding="utf-8") as fh:
        regions.write_tree(tree, fh)
    with open(os.path.join(root, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return {"config": "config.json", "points": len(events), "point_kind": "visit events",
            "taxis": n_taxis, "planted_labels": {str(k): v for k, v in
                                                 synth.PLANTED_LABELS.items()},
            "scenarios": 2, "runs": 10, "policies": 3}


# ------------------------------------------------------------------ fit_batch

FIT_SETS = 100
FIT_N = 10_000
# family -> x_min, as in the acceptance tests' recovery trials
FIT_FAMILIES = {"exponential": 5.5e-6, "lognormal": 1e-9,
                "powerlaw": 1.0, "truncated_powerlaw": 1.0}


def _draw(family: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if family == "exponential":
        return rng.exponential(5500.0, n)
    if family == "lognormal":
        return rng.lognormal(1.0, 0.5, n)
    if family == "powerlaw":
        return (1.0 - rng.random(n)) ** (-1.0 / 1.5)
    # truncated power law (alpha 1.5, rate 0.1, x_min 1) by rejection
    out: list[float] = []
    while len(out) < n:
        x = (1.0 - rng.random(4 * n)) ** (-1.0 / 0.5)
        keep = rng.random(4 * n) < np.exp(-0.1 * (x - 1.0))
        out.extend(x[keep].tolist())
    return np.asarray(out[:n])


def write_fit_batch(root: str, seed: int, n_sets: int = FIT_SETS, n: int = FIT_N) -> dict:
    """Write samples/NNN.txt plus samples/list.txt (path;family;x_min)."""
    os.makedirs(os.path.join(root, "samples"), exist_ok=True)
    families = list(FIT_FAMILIES)
    rows = []
    for i in range(n_sets):
        family = families[i % len(families)]
        x = _draw(family, np.random.default_rng([seed, i]), n)
        rel = f"samples/{i:03d}.txt"
        with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
            fh.write("\n".join(repr(float(v)) for v in x) + "\n")
        rows.append(f"{rel};{family};{FIT_FAMILIES[family]!r}")
    with open(os.path.join(root, "samples", "list.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return {"config": "samples/list.txt", "points": n_sets * n, "point_kind": "sample values",
            "sample_sets": n_sets}


GENERATORS = {"tdrive_week": write_tdrive_week,
              "planted_city": write_planted_city,
              "fit_batch": write_fit_batch}
