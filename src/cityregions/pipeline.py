"""Staged end-to-end pipeline: ingest, trips, regions, stats, functions, dtn.

Each stage reads its predecessor's artifacts from the output directory and
writes its own atomically (temp file + rename). A manifest records the config
hash and every stage's input/output hashes; nothing in the manifest depends
on wall-clock time, so rerunning a stage on unchanged inputs reproduces the
artifacts byte for byte. Within one ``all`` run a later stage gets what an
earlier one wrote in memory, as its reader would have returned it, so no
artifact is parsed twice; the bytes written are the same. A stage run on its
own keeps the columns it parses from a table artifact under ``.parsed/``,
keyed by the file's content, so the next stage run that reads the same
bytes loads them instead of parsing again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Iterable

import numpy as np

from . import dtn as dtn_mod
from . import functions as functions_mod
from . import regions as regions_mod
from . import stats as stats_mod
from . import trajectory as trajectory_mod
from .ingest import (FORMATS, CityBounds, Trace, clip_to_bounds, first_repeat,
                     load_grid_counts, parse_trace_file, parse_trace_files,
                     round_trips_canonical, write_canonical, write_rejects, write_rows)

STAGES = ("ingest", "trips", "regions", "stats", "functions", "dtn")

MANIFEST_NAME = "manifest.json"
PARSED_DIR = ".parsed"


class ConfigError(ValueError):
    """Invalid pipeline config; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid config: " + "; ".join(violations))


class MissingArtifactError(RuntimeError):
    """A stage dependency is absent from the output directory."""

    def __init__(self, path: str, needed_stage: str):
        self.needed_stage = needed_stage
        super().__init__(f"missing artifact {path!r}: run stage '{needed_stage}' first")


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    format: str
    taxi_id: str | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    eval_start: float
    eval_end: float
    history_start: float
    history_end: float


@dataclass(frozen=True)
class PipelineConfig:
    datasets: tuple[DatasetSpec, ...]
    bounds: CityBounds
    out_dir: str
    utc_offset_hours: float = 0.0
    segment_gap_s: float = trajectory_mod.DEFAULT_SEGMENT_GAP_S
    stop_distance_m: float = trajectory_mod.DEFAULT_STOP_DISTANCE_M
    stop_duration_s: float = trajectory_mod.DEFAULT_STOP_DURATION_S
    quadtree_threshold_fraction: float = regions_mod.DEFAULT_THRESHOLD_FRACTION
    quadtree_depth_cap: int = regions_mod.DEFAULT_DEPTH_CAP
    quadtree_visit_source: str = "points"  # or "trip_endpoints"
    minsup: float = functions_mod.DEFAULT_MINSUP
    time_windows: functions_mod.TimeWindows = field(
        default_factory=functions_mod.TimeWindows.default)
    stats_x_min: float | None = None
    grid_counts_path: str | None = None
    dtn_bin_width_s: float = dtn_mod.DEFAULT_BIN_WIDTH_S
    dtn_publishers: int = 100
    dtn_subscribers: int = 100
    dtn_runs: int = 10
    dtn_policies: tuple[str, ...] = dtn_mod.POLICIES
    dtn_scenarios: tuple[ScenarioSpec, ...] = ()
    rng_seed: int = 0
    raw: dict = field(default_factory=dict, compare=False)


def _is_number(v: object) -> bool:
    """An int or float that float() converts: an int past the float range is
    not one, a float infinity is."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, float) or abs(v) <= sys.float_info.max))


def _is_finite(v: object) -> bool:
    """A number float() takes to a finite float."""
    return _is_number(v) and abs(v) <= sys.float_info.max


def _datetime_takes(t: float, utc_offset_hours: float) -> bool:
    """Whether ``functions.local_hour_key`` takes t at the offset, as the dtn
    stage's local hours need: years 1 to 9999 of local time."""
    try:
        functions_mod.local_hour_key(t, utc_offset_hours)
    except (OverflowError, OSError, ValueError):
        return False
    return True


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# rule: (test, what a value must be, conversion of an accepted value)
_NUMBER = (_is_number, "a number", float)
_FINITE = (_is_finite, "a finite number", float)
_POSITIVE = (lambda v: _is_number(v) and v > 0, "positive", float)
_POSITIVE_FINITE = (lambda v: _is_finite(v) and v > 0, "positive and finite", float)
_FRACTION = (lambda v: _is_number(v) and 0 < v <= 1, "in (0, 1]", float)
_NON_NEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a non-negative int", int)
_POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive int", int)
_INT = (_is_int, "an int", int)
_OPTIONAL_POSITIVE = (lambda v: v is None or (_is_number(v) and v > 0),
                      "positive or null", lambda v: None if v is None else float(v))
_OPTIONAL_STR = (lambda v: v is None or isinstance(v, str), "a string or null",
                 lambda v: v)
# a scenario name heads its dtn_results.txt lines
_NAME = (lambda v: isinstance(v, str) and not any(c in v for c in ";\n\r"),
         "a string with no ';', newline or carriage return", str)
_PATH = (lambda v: isinstance(v, str) and v != "", "a non-empty string", lambda v: v)
_SLOT = (lambda v: (isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))
                    and 0 <= v[0] <= 6 and 0 <= v[1] <= 23),
         "[day, hour] ints with day 0-6 and hour 0-23", tuple)

# One row per scalar key of the raw config. The PipelineConfig field it sets
# is the dotted key with "_" for "."; a key left out takes that field's default.
_SCALAR_KEYS = (
    ("utc_offset_hours", _NUMBER),
    ("segment_gap_s", _POSITIVE),
    ("stop_distance_m", _POSITIVE),
    ("stop_duration_s", _POSITIVE),
    ("quadtree.threshold_fraction", _FRACTION),
    ("quadtree.depth_cap", _NON_NEGATIVE_INT),
    ("quadtree.visit_source", (lambda v: v in ("points", "trip_endpoints"),
                               "'points' or 'trip_endpoints'", str)),
    ("minsup", _FRACTION),
    ("stats_x_min", _OPTIONAL_POSITIVE),
    ("grid_counts_path", _OPTIONAL_STR),
    ("dtn.bin_width_s", _POSITIVE_FINITE),
    ("dtn.publishers", _POSITIVE_INT),
    ("dtn.subscribers", _POSITIVE_INT),
    ("dtn.runs", _POSITIVE_INT),
    ("rng_seed", _INT),
)


def parse_config(raw: dict) -> PipelineConfig:
    """Validate a raw config dict, reporting every violated field at once."""
    if not isinstance(raw, dict):
        raise ConfigError([f"config: must be an object, got a JSON {type(raw).__name__}"])
    violations: list[str] = []

    def check(cond: bool, message: str) -> bool:
        if not cond:
            violations.append(message)
        return cond

    def check_keys(node: object, known, where: str) -> None:
        for key in node if isinstance(node, dict) else ():
            check(key in known, f"{where}{key}: unknown key")

    def valid(value: object, key: str, rule: tuple) -> bool:
        test, what, _ = rule
        return check(test(value), f"{key}: must be {what}, got {value!r}")

    def read(node: dict, name: str, rule: tuple, where: str = "") -> object:
        """``node[name]`` converted by its rule, or None if it is absent or breaks it."""
        if (check(name in node, f"{where}{name}: required")
                and valid(node[name], where + name, rule)):
            return rule[2](node[name])
        return None

    def read_all(node: object, rules: dict, where: str) -> dict | None:
        """Every key of ``rules`` converted by its rule from the object
        ``node``, or None once a key is absent or breaks its rule."""
        if not check(isinstance(node, dict), f"{where[:-1]}: must be an object"):
            return None
        check_keys(node, rules, where)
        kept = {name: read(node, name, rule, where) for name, rule in rules.items()}
        return kept if None not in kept.values() else None

    sections = {"": raw}
    for name in ("quadtree", "dtn"):
        sections[name] = raw.get(name, {})
        check(isinstance(sections[name], dict), f"{name}: must be an object")
    # each section's keys: the hand-parsed ones here, the _SCALAR_KEYS rows below
    known = {"": {"datasets", "bounds", "out_dir", "time_windows", "quadtree", "dtn"},
             "quadtree": set(), "dtn": {"policies", "scenarios"}}
    values: dict = {}
    for key, rule in _SCALAR_KEYS:
        section, _, name = key.rpartition(".")
        known[section].add(name)
        node = sections[section]
        if isinstance(node, dict) and name in node and valid(node[name], key, rule):
            values[key.replace(".", "_")] = rule[2](node[name])
    for name, node in sections.items():
        check_keys(node, known[name], name and name + ".")
    # datetime.timezone refuses offsets of a whole day or more
    offset = values.get("utc_offset_hours", 0.0)
    offset_ok = check(abs(offset) < 24, "utc_offset_hours: must be in (-24, 24), "
                      f"got {raw.get('utc_offset_hours')!r}")

    datasets: list[DatasetSpec] = []
    ds_raw = raw.get("datasets")
    if check(isinstance(ds_raw, list) and len(ds_raw) > 0,
             "datasets: need a non-empty list"):
        for i, d in enumerate(ds_raw):
            if not check(isinstance(d, dict), f"datasets[{i}]: must be an object"):
                continue
            check_keys(d, {f.name for f in fields(DatasetSpec)}, f"datasets[{i}].")
            fmt = d.get("format")
            check(fmt in FORMATS, f"datasets[{i}].format: unknown format {fmt!r}")
            path = read(d, "path", _PATH, f"datasets[{i}].")
            taxi_id = d.get("taxi_id")
            check(taxi_id is not None or fmt != "sanfrancisco",
                  f"datasets[{i}].taxi_id: required for format 'sanfrancisco'")
            check(taxi_id is None or round_trips_canonical(taxi_id),
                  f"datasets[{i}].taxi_id: must read back unchanged from a trace.txt line "
                  f"(a string with no ';', newline or surrounding space), got {taxi_id!r}")
            datasets.append(DatasetSpec(path=path, format=fmt, taxi_id=taxi_id))

    bounds = None
    coords = read_all(raw.get("bounds", {}), {f.name: _NUMBER for f in fields(CityBounds)},
                      "bounds.")
    if coords is not None:
        try:
            bounds = CityBounds(**coords)
        except ValueError as exc:
            violations.append(f"bounds: {exc}")

    out_dir = read(raw, "out_dir", _PATH)

    tw = raw.get("time_windows")
    if "time_windows" in raw and check(isinstance(tw, dict), "time_windows: must be an object"):
        names = [f.name for f in fields(functions_mod.TimeWindows)]
        check_keys(tw, names, "time_windows.")
        slots = {}
        for name in names:
            node = tw.get(name, [])
            if not check(isinstance(node, list), f"time_windows.{name}: must be a list"):
                node = []
            slots[name] = frozenset(tuple(slot) for k, slot in enumerate(node)
                                    if valid(slot, f"time_windows.{name}[{k}]", _SLOT))
        try:
            values["time_windows"] = functions_mod.TimeWindows(**slots)
        except ValueError as exc:
            violations.append(f"time_windows: {exc}")

    d = sections["dtn"] if isinstance(sections["dtn"], dict) else {}
    if "policies" in d and check(isinstance(d["policies"], list),
                                 "dtn.policies: must be a list"):
        for p in d["policies"]:
            check(p in dtn_mod.POLICIES, f"dtn.policies: unknown policy {p!r}")
        values["dtn_policies"] = tuple(d["policies"])
    if "scenarios" in d and check(isinstance(d["scenarios"], list),
                                  "dtn.scenarios: must be a list"):
        scenarios: list[ScenarioSpec] = []
        rules = {f.name: _FINITE for f in fields(ScenarioSpec)} | {"name": _NAME}
        for i, s in enumerate(d["scenarios"]):
            spec = read_all(s, rules, f"dtn.scenarios[{i}].")
            if spec is not None:
                for name, t in spec.items():
                    check(name == "name" or not offset_ok or _datetime_takes(t, offset),
                          f"dtn.scenarios[{i}].{name}: must lie in years 1 to 9999 at "
                          f"utc_offset_hours, got {t!r}")
                spec = ScenarioSpec(**spec)
                check(spec.eval_start < spec.eval_end,
                      f"dtn.scenarios[{i}]: empty eval window")
                check(spec.history_start < spec.history_end,
                      f"dtn.scenarios[{i}]: empty history window")
                scenarios.append(spec)
        values["dtn_scenarios"] = tuple(scenarios)

    if violations:
        raise ConfigError(violations)
    return PipelineConfig(datasets=tuple(datasets), bounds=bounds, out_dir=out_dir,
                          raw=raw, **values)


def load_config(path: str, overrides: Iterable[tuple[str, object]] = ()) -> PipelineConfig:
    """The config file with each dotted-key override set in turn, validated.

    An override whose parent key holds something other than an object is a
    violation, as a bad value is.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    violations = []
    for key, value in overrides if isinstance(raw, dict) else ():
        *parents, name = key.split(".")
        node = raw
        for depth, part in enumerate(parents):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                violations.append(f"{'.'.join(parents[:depth + 1])}: must be an object "
                                  f"to take the override {key!r}, got {node!r}")
                break
        else:
            node[name] = value
    if violations:
        raise ConfigError(violations)
    return parse_config(raw)


def config_hash(cfg: PipelineConfig) -> str:
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_seed(global_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def atomic_write(path: str, write: Callable) -> None:
    """Write via a uniquely named sibling temp file and rename into place.

    The temp file is made as open() makes a new file, so it gets the mode
    the umask leaves of 0666; a write that fails leaves no temp file behind.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_text(path: str, reader: Callable[[IO[str]], object]) -> object:
    """Parse an artifact split on "\\n" only, as atomic_write writes it."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return reader(fh)


def _read_trace(path: str) -> Trace:
    """trace.txt, refused unless every line reads back as a distinct fix, as
    ingest wrote it: the reader would drop a changed line without a word."""
    trace, report = parse_trace_file(path, "canonical")
    if report.rejects or report.deduplicated:
        first = report.rejects[:1] + ([first_repeat(path)] if report.deduplicated else [])
        lineno, reason = min(first)
        raise ValueError(f"line {lineno}: {reason} ({report.rejected} rejected, "
                         f"{report.deduplicated} repeated line(s))")
    return trace


# name: (the stage that writes it, its reader from path to value, the last stage
# that reads it). A reader looks its function up at call time, so a wrapper
# installed after import (a tracer's) is the one that runs.
_ARTIFACTS: dict[str, tuple[str, Callable[[str], object] | None, str | None]] = {
    "trace.txt": ("ingest", _read_trace, "regions"),
    "rejects.txt": ("ingest", None, None),
    "ingest_summary.txt": ("ingest", None, None),
    "trips.txt": ("trips", lambda p: _read_text(p, trajectory_mod.load_trips), "stats"),
    "stops.txt": ("trips", lambda p: _read_text(p, trajectory_mod.load_stay_times), "stats"),
    "tree.txt": ("regions", lambda p: _read_text(p, regions_mod.load_tree), "functions"),
    "events.txt": ("regions", lambda p: _read_text(p, regions_mod.load_events), "dtn"),
    "regions_dropped.txt": ("regions", None, None),
    **{f"{kind}_{sample}.txt": ("stats", None, None) for kind in ("fits", "ccdf")
       for sample in ("trip_length", "trip_duration", "stay_time")},
    "correlation.txt": ("stats", None, None),
    "labels.txt": ("functions", lambda p: _read_text(p, functions_mod.load_labels), "dtn"),
    "itemsets.txt": ("functions", None, None),
    "region_labels_plot.txt": ("functions", None, None),
    "dtn_results.txt": ("dtn", None, None),
    "dtn_summary.txt": ("dtn", None, None),
}

# The table artifacts whose parsed columns a stage run on its own keeps in
# <out_dir>/.parsed/<name>.columns, each with the type its reader returns.
_PARSED_TYPES: dict[str, type] = {
    "trace.txt": Trace,
    "trips.txt": trajectory_mod.TripTable,
    "stops.txt": np.ndarray,
    "events.txt": regions_mod.EventTable,
}


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's sources: a parsed entry another version of
    the readers or tables wrote is a miss."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _parsed_key(artifact_sha256: str) -> str:
    """What a parsed entry must hold to stand for an artifact: the file's
    sha256, the sources that parsed it and the numpy that saved it."""
    return f"{artifact_sha256} {_source_digest()} numpy-{np.__version__}"


def _to_columns(value: object) -> dict[str, np.ndarray]:
    """A reader's value as named arrays: an array as "values", a table field
    by field with a None field left out, and a tuple of taxi ids as its UTF-8
    bytes (surrogates passed through) and each id's end offset, since numpy's
    str dtype drops trailing NULs."""
    if isinstance(value, np.ndarray):
        return {"values": value}
    columns = {}
    for f in fields(value):
        column = getattr(value, f.name)
        if isinstance(column, tuple):
            encoded = [s.encode("utf-8", "surrogatepass") for s in column]
            columns[f.name + ".utf8"] = np.frombuffer(b"".join(encoded), np.uint8)
            columns[f.name + ".ends"] = np.cumsum([len(b) for b in encoded], dtype=np.int64)
        elif column is not None:
            columns[f.name] = column
    return columns


def _from_columns(kind: type, columns: dict[str, np.ndarray]) -> object:
    """The ``kind`` value ``_to_columns`` gave these columns for."""
    if kind is np.ndarray:
        return columns["values"]
    values = {}
    for f in fields(kind):
        if f.name + ".ends" in columns:
            blob, ends = columns[f.name + ".utf8"].tobytes(), columns[f.name + ".ends"].tolist()
            values[f.name] = tuple(blob[start:end].decode("utf-8", "surrogatepass")
                                   for start, end in zip([0] + ends, ends))
        else:
            values[f.name] = columns.get(f.name)
    return kind(**values)


def _save_parsed(entry: str, key: str, columns: dict[str, np.ndarray]) -> None:
    """Write the entry as one file through atomic_write: a str array of the
    key and the column names, then each column, every array as .npy bytes.
    The bytes depend on the key alone."""
    os.makedirs(os.path.dirname(entry), exist_ok=True)

    def write(fh: IO[str]) -> None:
        for array in (np.array([key, *columns]), *columns.values()):
            np.save(fh.buffer, array, allow_pickle=False)

    atomic_write(entry, write)


def _load_parsed(entry: str, key: str, kind: type) -> object | None:
    """The value the entry holds, read through one open, or None (a miss)
    when its head is no array of this key and the column names, it ends
    early or runs on past them, or an array is no .npy numpy reads unpickled."""
    read = functools.partial(np.lib.format.read_array, allow_pickle=False)
    try:
        with open(entry, "rb") as fh:
            head = read(fh)
            if head.ndim != 1 or head[:1].tolist() != [key]:
                return None
            columns = {name: read(fh) for name in head[1:].tolist()}
            return None if fh.read(1) else _from_columns(kind, columns)
    except (OSError, ValueError):
        return None


def _same_file(a: os.stat_result, b: os.stat_result) -> bool:
    return ((a.st_dev, a.st_ino, a.st_size, a.st_mtime_ns)
            == (b.st_dev, b.st_ino, b.st_size, b.st_mtime_ns))


def _manifest_stages(path: str, current_hash: str) -> dict:
    """The stages a manifest enters under the current config hash, none if
    there is no manifest; one that is no such JSON object is refused with
    its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(previous, dict):
        raise ValueError(f"{path}: must be a JSON object, got a JSON {type(previous).__name__}")
    if previous.get("config_hash") != current_hash:
        return {}
    stages = previous.get("stages", {})
    if not isinstance(stages, dict):
        raise ValueError(f'{path}: "stages" must be an object, got a JSON {type(stages).__name__}')
    return stages


class _Workspace:
    """Artifact reads and writes for one run, and their manifest entries.

    What a stage wrote or read is kept until its last reader has run. A
    file's sha256 is computed once and shared by a read and the manifest,
    until the run rewrites the file.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = cfg.out_dir
        self.kept: dict[str, object] = {}
        self.hashes: dict[str, str] = {}
        # the running stage's input and output paths, for the manifest
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        os.makedirs(self.out, exist_ok=True)
        # read before any stage runs, so a bad manifest stops the run unwritten
        self.config_hash = config_hash(cfg)
        self.stages = _manifest_stages(self.path(MANIFEST_NAME), self.config_hash)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def sha256(self, path: str) -> str:
        if path not in self.hashes:
            self.hashes[path] = file_hash(path)
        return self.hashes[path]

    def read(self, name: str) -> object:
        """The artifact's value; a refusal names the file and the stage to rerun."""
        stage, reader, _ = _ARTIFACTS[name]
        p = self.path(name)
        if not os.path.exists(p):
            raise MissingArtifactError(p, stage)
        self.inputs.append(p)
        if name not in self.kept:
            self.kept[name] = self._parse(name)
        return self.kept[name]

    def _parse(self, name: str) -> object:
        """The reader's value for the file, loaded from its .parsed/ entry
        when that holds the file's key, else parsed and saved there."""
        stage, reader, _ = _ARTIFACTS[name]
        p = self.path(name)
        kind = _PARSED_TYPES.get(name)
        if kind is not None:
            before = os.stat(p)
            entry, key = self.path(f"{PARSED_DIR}/{name}.columns"), _parsed_key(self.sha256(p))
            value = _load_parsed(entry, key, kind)
            if value is not None:
                return value
        try:
            value = reader(p)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{p}: {exc}; rerun stage '{stage}'") from None
        # a file replaced while it was hashed and parsed may not match the key
        if kind is not None and _same_file(before, os.stat(p)):
            _save_parsed(entry, key, _to_columns(value))
        return value

    def write(self, name: str, write: Callable, keep: object = None) -> None:
        """Write atomically; keep is what read(name) would return, or None."""
        atomic_write(self.path(name), write)
        self.hashes.pop(self.path(name), None)
        self.outputs.append(self.path(name))
        if keep is not None:
            self.kept[name] = keep

    def record(self, stage: str) -> None:
        """Enter the finished stage's reads and writes in the manifest, and
        drop the values it was the last to read."""
        self.stages[stage] = {
            "inputs": {os.path.basename(p) if p.startswith(self.out) else p:
                       self.sha256(p) for p in self.inputs},
            "outputs": {os.path.basename(p): self.sha256(p) for p in self.outputs},
        }
        manifest = {"config_hash": self.config_hash, "stages": self.stages}
        atomic_write(self.path(MANIFEST_NAME),
                     lambda fh: fh.write(json.dumps(manifest, sort_keys=True,
                                                    indent=2) + "\n"))
        self.inputs, self.outputs = [], []
        self.kept = {name: value for name, value in self.kept.items()
                     if _ARTIFACTS[name][2] != stage}


def _stage_ingest(ws: _Workspace) -> None:
    cfg = ws.cfg
    ws.inputs.extend(ds.path for ds in cfg.datasets)
    trace, report = parse_trace_files([(ds.path, ds.format, ds.taxi_id)
                                       for ds in cfg.datasets], cfg.utc_offset_hours)
    unclipped = len(trace)
    clipped = clip_to_bounds(trace, cfg.bounds)
    del trace  # the unclipped columns go before trace.txt is written
    ws.write("trace.txt", lambda fh: write_canonical(clipped, fh), clipped)
    ws.write("rejects.txt", lambda fh: write_rejects(report, fh))

    def write_summary(fh):
        fh.write(f"input_lines;{report.total_lines}\n")
        fh.write(f"accepted;{report.accepted}\n")
        fh.write(f"deduplicated;{report.deduplicated}\n")
        fh.write(f"rejected;{report.rejected}\n")
        fh.write(f"clipped_out_of_bounds;{unclipped - len(clipped)}\n")
        fh.write(f"points_written;{len(clipped)}\n")

    ws.write("ingest_summary.txt", write_summary)


def _stage_trips(ws: _Workspace) -> None:
    cfg = ws.cfg
    trace = ws.read("trace.txt")
    stops, trips = trajectory_mod.stops_and_trips(trace, cfg.segment_gap_s,
                                                  cfg.stop_distance_m, cfg.stop_duration_s)
    ws.write("trips.txt", lambda fh: trajectory_mod.write_trips(trips, fh), trips)
    ws.write("stops.txt", lambda fh: trajectory_mod.write_stops(stops, fh),
             stops.dwell_end - stops.dwell_start)


def _stage_regions(ws: _Workspace) -> None:
    cfg = ws.cfg
    trips = ws.read("trips.txt")
    if cfg.quadtree_visit_source == "trip_endpoints":  # departures, then arrivals
        coords = np.column_stack((np.concatenate((trips.depart_lat, trips.arrive_lat)),
                                  np.concatenate((trips.depart_lon, trips.arrive_lon))))
    else:
        trace = ws.read("trace.txt")
        coords = np.column_stack((trace.lat, trace.lon))
    tree = regions_mod.build_quadtree(coords, cfg.bounds,
                                      cfg.quadtree_threshold_fraction,
                                      cfg.quadtree_depth_cap)
    events, dropped = regions_mod.trips_to_events(trips, tree)
    ws.write("tree.txt", lambda fh: regions_mod.write_tree(tree, fh), tree.leaves)
    ws.write("events.txt", lambda fh: regions_mod.write_events(events, fh), events)
    ws.write("regions_dropped.txt", lambda fh: fh.write(f"dropped_endpoints;{dropped}\n"))


def _stage_stats(ws: _Workspace) -> None:
    cfg = ws.cfg
    trips = ws.read("trips.txt")
    stay_times = ws.read("stops.txt")
    if cfg.grid_counts_path:
        ws.inputs.append(cfg.grid_counts_path)
        with open(cfg.grid_counts_path, "r", encoding="utf-8") as fh:
            try:
                road_grid = load_grid_counts(fh)
            except ValueError as exc:
                raise ValueError(f"{cfg.grid_counts_path}: {exc}") from None
    for name, samples in (("trip_length", trips.length_m), ("trip_duration", trips.duration_s),
                          ("stay_time", stay_times)):
        try:
            _, writers = stats_mod.fit_sample_set(samples, cfg.stats_x_min)
        except stats_mod.FitError as exc:
            raise stats_mod.FitError(f"{name}: {exc}") from None
        for kind, write in writers.items():
            ws.write(f"{kind}_{name}.txt", write)
    if cfg.grid_counts_path:
        visit_coords = np.column_stack((trips.arrive_lat, trips.arrive_lon))
        visit_grid = regions_mod.grid_visit_counts(visit_coords, road_grid.bounds,
                                                   road_grid.rows, road_grid.cols)
        corr = stats_mod.pearson(road_grid.counts, visit_grid.counts)
        ws.write("correlation.txt", lambda fh: fh.write(f"r;{repr(corr.r)}\nn;{corr.n}\n"))


def _stage_functions(ws: _Workspace) -> None:
    cfg = ws.cfg
    events = ws.read("events.txt")
    leaves = ws.read("tree.txt")
    visits = events.select(events.visit)
    tables = functions_mod.hourly_transactions(visits, cfg.utc_offset_hours)
    hourly = {key: functions_mod.apriori(table, cfg.minsup)
              for key, table in tables.items()}
    labels = functions_mod.classify_regions(hourly, cfg.time_windows, leaves.region.tolist())
    by_id = {rf.region_id: rf.label for rf in labels}
    ws.write("labels.txt", lambda fh: functions_mod.write_labels(labels, fh), by_id)
    ws.write("itemsets.txt", lambda fh: functions_mod.write_itemsets(hourly, fh))
    # by_id holds every leaf's region, in ascending order
    codes = np.fromiter(map(functions_mod.LABELS.index, by_id.values()), np.int8, len(by_id))
    label = (functions_mod.LABELS, codes[np.searchsorted(list(by_id), leaves.region)])
    ws.write("region_labels_plot.txt", lambda fh: write_rows(fh, leaves.columns() + [label]))


def _stage_dtn(ws: _Workspace) -> None:
    cfg = ws.cfg
    events = ws.read("events.txt")
    labels = ws.read("labels.txt")
    visits = events.select(events.visit)
    rows = []
    for scenario in cfg.dtn_scenarios:
        eval_window = (scenario.eval_start, scenario.eval_end)
        history_window = (scenario.history_start, scenario.history_end)
        hot = dtn_mod.hot_regions_for_window(eval_window, labels, cfg.time_windows,
                                             cfg.utc_offset_hours)
        # only the publishers differ between runs and policies
        inputs = dtn_mod.scenario_inputs(visits, eval_window, history_window,
                                         cfg.dtn_bin_width_s)
        for run in range(cfg.dtn_runs):
            sub_seed = derive_seed(cfg.rng_seed, f"dtn:{scenario.name}:{run}:subs")
            subscribers = dtn_mod.select_random(inputs.population, cfg.dtn_subscribers,
                                                sub_seed)
            for policy in cfg.dtn_policies:
                sim = dtn_mod.SimScenario(
                    eval_window=eval_window,
                    hot_regions=hot,
                    subscribers=frozenset(subscribers),
                    publisher_count=cfg.dtn_publishers,
                    policy=policy,
                    history_window=history_window,
                    rng_seed=derive_seed(cfg.rng_seed,
                                         f"dtn:{scenario.name}:{run}:{policy}"))
                rows.append((f"{scenario.name}:{policy}", run,
                             dtn_mod.run_policy(inputs, sim)))
    ws.write("dtn_results.txt", lambda fh: dtn_mod.write_results(rows, fh))
    summary = dtn_mod.summarize([(p.rsplit(":", 1)[-1], run, o) for p, run, o in rows])
    ws.write("dtn_summary.txt", lambda fh: dtn_mod.write_summary(summary, fh))


_STAGE_FUNCS = dict(zip(STAGES, (_stage_ingest, _stage_trips, _stage_regions, _stage_stats,
                                 _stage_functions, _stage_dtn)))


def run(cfg: PipelineConfig, stage: str) -> None:
    """Run one stage, or every stage in order for stage='all'."""
    if stage != "all" and stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES + ('all',)}")
    ws = _Workspace(cfg)
    for name in STAGES if stage == "all" else (stage,):
        _STAGE_FUNCS[name](ws)
        ws.record(name)
