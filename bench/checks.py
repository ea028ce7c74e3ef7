"""Output checks and artifact facts, read from the files the program wrote.

Every check returns ``(ok, detail)``; run.py counts a failed check into
the run's failed operations instead of aborting. The checks read the
artifacts with their own small parsers, so they do not trust the code they
check.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os

TRIP_ENDPOINTS = 2
STOP_MATCH_M = 50.0
WEIGHT_SUM_TOL = 1e-9


def digest(directory: str) -> str:
    """sha256 over every file under directory: relative name, then bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(directory) for f in files)


def rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(";") for line in fh if line.strip()]


def key_values(path: str) -> dict[str, str]:
    return {r[0]: r[1] for r in rows(path)}


def count_lines(path: str) -> int:
    return len(rows(path)) if os.path.exists(path) else 0


# ------------------------------------------------------------------ pipeline

def ingest_accounting(out: str) -> tuple[bool, str]:
    s = {k: int(v) for k, v in key_values(os.path.join(out, "ingest_summary.txt")).items()}
    total = s["accepted"] + s["deduplicated"] + s["rejected"]
    return (s["input_lines"] == total,
            f"input_lines={s['input_lines']} accepted+deduplicated+rejected={total}")


def endpoint_accounting(out: str) -> tuple[bool, str]:
    trips = count_lines(os.path.join(out, "trips.txt"))
    events = count_lines(os.path.join(out, "events.txt"))
    dropped = int(key_values(os.path.join(out, "regions_dropped.txt"))["dropped_endpoints"])
    return (TRIP_ENDPOINTS * trips == events + dropped,
            f"2*trips={TRIP_ENDPOINTS * trips} events+dropped={events + dropped}")


def _metres(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    dn = (lat2 - lat1) * 111_195.0
    de = (lon2 - lon1) * 111_195.0 * math.cos(math.radians(lat1))
    return math.hypot(dn, de)


def stop_recall(out: str, truth_path: str) -> float:
    """Share of planted dwells matched by a detected stop of the same taxi.

    A match overlaps the dwell in time and has its centroid within 50 m of
    the dwell site.
    """
    by_taxi: dict[str, list[tuple[float, float, float, float]]] = {}
    for taxi, start, end, lat, lon in rows(os.path.join(out, "stops.txt")):
        by_taxi.setdefault(taxi, []).append((float(start), float(end), float(lat), float(lon)))
    for stops in by_taxi.values():
        stops.sort()
    planted = rows(truth_path)
    found = 0
    for taxi, start, end, lat, lon, _place in planted:
        stops = by_taxi.get(taxi, [])
        t0, t1, la, lo = float(start), float(end), float(lat), float(lon)
        i = bisect.bisect_left(stops, (t0,))
        for s in stops[max(0, i - 1):i + 2]:
            if s[0] <= t1 and s[1] >= t0 and _metres(la, lo, s[2], s[3]) <= STOP_MATCH_M:
                found += 1
                break
    return found / len(planted) if planted else 0.0


def leaf_of(tree_path: str, lat: float, lon: float) -> list[int]:
    """Region ids whose half-open leaf box holds the point (one, if the tree tiles)."""
    return [int(r[0]) for r in rows(tree_path)
            if float(r[1]) <= lat < float(r[2]) and float(r[3]) <= lon < float(r[4])]


def labels(out: str) -> dict[int, str]:
    return {int(r[0]): r[1] for r in rows(os.path.join(out, "labels.txt"))}


def hub_labels(out: str, hubs_path: str) -> list[tuple[str, bool, str]]:
    """One check per planted hub: its leaf carries the planted label."""
    with open(hubs_path, encoding="utf-8") as fh:
        hubs = json.load(fh)
    got = labels(out)
    checks = []
    for name, hub in sorted(hubs.items()):
        ids = leaf_of(os.path.join(out, "tree.txt"), hub["lat"], hub["lon"])
        label = got.get(ids[0]) if len(ids) == 1 else None
        checks.append((f"hub label {name}", label == hub["label"],
                       f"leaves {ids} labelled {label}, planted {hub['label']}"))
    return checks


def planted_labels(out: str, planted: dict[str, str]) -> list[tuple[str, bool, str]]:
    got = labels(out)
    return [(f"planted label region {rid}", got.get(int(rid)) == label,
             f"labelled {got.get(int(rid))}, planted {label}")
            for rid, label in sorted(planted.items())]


def itemsets_found(out: str) -> tuple[bool, str]:
    n = count_lines(os.path.join(out, "itemsets.txt"))
    return n > 0, f"{n} frequent itemsets"


def dtn_rows(out: str, expected: int) -> tuple[bool, str]:
    ratios = [float(r[4]) for r in rows(os.path.join(out, "dtn_results.txt"))]
    bad = [r for r in ratios if not 0.0 <= r <= 1.0]
    return (len(ratios) == expected and not bad,
            f"{len(ratios)} rows (expected {expected}), {len(bad)} ratios outside [0, 1]")


def delivery_ratio(out: str) -> float:
    ratios = [float(r[4]) for r in rows(os.path.join(out, "dtn_results.txt"))]
    return sum(ratios) / len(ratios) if ratios else 0.0


# ---------------------------------------------------------------------- fits

def fit_output(prefix: str) -> tuple[bool, str, str | None]:
    """Fit table and CCDF written, Akaike weights summing to 1; best model."""
    fits, ccdf = prefix + "_fits.txt", prefix + "_ccdf.txt"
    if not (os.path.exists(fits) and os.path.exists(ccdf)):
        return False, f"missing {fits} or {ccdf}", None
    table = [r for r in rows(fits) if not r[0].startswith("#")]
    if len(table) < 2 or count_lines(ccdf) == 0:
        return False, f"{len(table)} fitted models, {count_lines(ccdf)} ccdf rows", None
    weights = [float(r[5]) for r in table]
    best = max(zip(weights, (r[0] for r in table)))[1]
    total = math.fsum(weights)
    return abs(total - 1.0) <= WEIGHT_SUM_TOL, f"weights sum to {total!r}", best
