"""cityregions benchmark: one workload run, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tdrive_week --seed 1 --seconds 20 --trace 0

Workloads (inputs are made from the seed by ``gen.py``):

* ``tdrive_week``  -- ``cityregions all`` on a T-Drive-shaped raw trace.
* ``planted_city`` -- ``cityregions functions`` then ``cityregions dtn`` on
  planted-city artifacts, as two CLI processes.
* ``fit_batch``    -- ``cityregions fit`` on 100 sample files through
  ``cli.main``, in one process.

This process only generates inputs, starts program processes one at a time
(``child.py``) and checks what they wrote. With ``--trace 0`` it repeats the
workload while the next repetition still fits in ``--seconds`` (at least
once) and reports the end-to-end metrics as medians. With ``--trace 1`` it
runs the workload once untraced and once with every layer boundary wrapped
(``tracer.py``), and reports the per-layer metrics and the tracing overhead;
on ``tdrive_week`` both of these run one ``pipeline.run`` process per stage,
which gives per-stage peak RSS and keeps the overhead free of the split.

Lines before the last one describe the run: provenance, failed checks, the
artifact digest and, when traced, the span table. The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``. Exits non-zero,
printing no result, when the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 5
STOP_RECALL_FLOOR = 0.95
STAGES = ("ingest", "trips", "regions", "stats", "functions", "dtn")
MB = 1024.0 * 1024.0

CAVEATS = [
    "shared CPU: other tenants' containers run on the same host",
    "file cache not dropped between runs",
    "no system-wide profiling; layers are timed by wrappers in the traced run only",
    "peak RSS is ru_maxrss of each program process, from wait4 rusage",
    "inputs are seeded synthetic stand-ins for the T-Drive, Rome and SF corpora",
]

# name -> unit; the order here is the order of BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "rss_bytes_per_point": "B",
}

PER_LAYER = {
    "ingest.parse_trace_file.beijing.s": "s",
    "ingest.parse_trace_file.canonical.s": "s",
    "ingest.parse_trace_file.calls": "count",
    "ingest.lines": "count",
    "ingest.accepted": "count",
    "ingest.deduplicated": "count",
    "ingest.rejected": "count",
    "ingest.accept_ratio": "ratio",
    "ingest.clip_to_bounds.s": "s",
    "ingest.write_canonical.s": "s",
    "trajectory.segment.s": "s",
    "trajectory.detect_stops.s": "s",
    "trajectory.detect_stops.calls": "count",
    "trajectory.great_circle.calls": "count",
    "trajectory.great_circle_per_point": "ratio",
    "trajectory.extract_trips.s": "s",
    "trajectory.stops": "count",
    "trajectory.trips": "count",
    "trajectory.stop_recall": "ratio",
    "trajectory.load_trips.s": "s",
    "trajectory.write_trips.s": "s",
    "regions.build_quadtree.s": "s",
    "regions.leaves": "count",
    "regions.trips_to_events.s": "s",
    "regions.locate.calls": "count",
    "regions.events": "count",
    "regions.dropped_endpoints": "count",
    "regions.write_events.s": "s",
    "regions.load_events.s": "s",
    "regions.load_tree.s": "s",
    "stats.fit_truncated_powerlaw.s": "s",
    "stats.fit_truncated_powerlaw.calls": "count",
    "stats.fit_powerlaw.s": "s",
    "stats.fit_lognormal.s": "s",
    "stats.fit_exponential.s": "s",
    "stats.compare_models.s": "s",
    "stats.empirical_ccdf.s": "s",
    "stats.converged_ratio": "ratio",
    "stats.recovery_ratio": "ratio",
    "fits_per_s": "1/s",
    "fit_latency_p50_s": "s",
    "fit_latency_p90_s": "s",
    "functions.hourly_transactions.s": "s",
    "functions.tables": "count",
    "functions.apriori.s": "s",
    "functions.apriori.calls": "count",
    "functions.frequent_itemsets": "count",
    "functions.classify_regions.s": "s",
    "functions.labels.workplace": "count",
    "functions.labels.entertainment": "count",
    "functions.labels.residential": "count",
    "functions.labels.other": "count",
    "events_per_s": "1/s",
    "dtn.run_scenario.s": "s",
    "dtn.run_scenario.calls": "count",
    "dtn.in_window.s": "s",
    "dtn.in_window.calls": "count",
    "dtn.encounters.s": "s",
    "dtn.encounters.calls": "count",
    "dtn.encounter_pairs": "count",
    "dtn.encounters.recompute_ratio": "ratio",
    "dtn.select.s": "s",
    "dtn.propagate.s": "s",
    "dtn.delivery_ratio": "ratio",
    **{f"pipeline.stage.{s}.s": "s" for s in STAGES},
    **{f"pipeline.stage.{s}.peak_rss_mb": "MB" for s in STAGES},
    "pipeline.load_config.s": "s",
    "pipeline.file_hash.s": "s",
    "pipeline.file_hash.bytes": "B",
    "pipeline.atomic_write.s": "s",
    "pipeline.artifact_bytes": "B",
    "error_rate": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metrics that are span totals: metric name -> span name
SPAN_METRICS = {name[:-2]: name for name in PER_LAYER if name.endswith(".s")}
# per-layer metrics that are span call counts: "<span>.calls"
CALL_METRICS = ("trajectory.detect_stops", "stats.fit_truncated_powerlaw",
                "functions.apriori", "dtn.run_scenario", "dtn.in_window", "dtn.encounters")
# per-layer metrics that are tracer counters
COUNT_METRICS = ("trajectory.great_circle.calls",
                 "regions.locate.calls", "functions.tables", "dtn.encounter_pairs",
                 "pipeline.file_hash.bytes")


class Child:
    """What one finished program process reported; times at reference speed.

    ``stage`` is the one pipeline stage the process ran, if it ran one.
    """

    def __init__(self, stage: str | None, rc: int, setup: float, wall: float, scale: float,
                 rss_mb: float, data: dict, stderr: str):
        self.stage, self.rc, self.raw_wall, self.scale = stage, rc, wall, scale
        self.rss_mb = rss_mb
        self.setup, self.wall = setup * scale, wall * scale
        self.data, self.stderr = data, stderr


class Run:
    """One benchmark run: a work directory, its operations and their outcome."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.cpu = max(os.sched_getaffinity(0))
        self.burn = 0  # probe loops added to each measured call (validate_rescale.py)
        self._spawned = 0

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def spawn(self, **spec) -> Child:
        """Start child.py on a spec, wait for it, and collect its rusage."""
        n = self._spawned
        self._spawned += 1
        spec.update(src=SRC, result=f"child-{n}.json", cpu=self.cpu, burn=self.burn)
        spec_path = self.path(f"child-{n}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        err_path = self.path(f"child-{n}.err")
        probe = SpeedProbe(self.cpu)
        with open(err_path, "w", encoding="utf-8") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err, env=env)
            probe.start()
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                probe.done.set()
                probe.join()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()[-2000:]
        data: dict = {}
        result_path = self.path(spec["result"])
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                data = json.load(fh)
        rc = proc.returncode or int(data.get("rc", 0) or 0)
        setup = data["t_ready"] - t_spawn if data else t_exit - t_spawn
        wall = data["t_end"] - data["t_begin"] if data else t_exit - t_spawn
        return Child(spec.get("stage"), rc, setup, wall, probe.scale(), usage.ru_maxrss / 1024.0,
                     data, stderr)

    def call(self, name: str, **spec) -> Child:
        """Spawn a program process and count it as one operation."""
        child = self.spawn(**spec)
        self.op(name, child.rc == 0, f"exit {child.rc}: {child.stderr.strip()[-500:]}")
        return child

    def fresh_out(self, name: str = "out") -> str:
        out = self.path(name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return out

    def same_digest(self, directory: str, what: str) -> None:
        """Artifacts must be byte-identical across repetitions of one run."""
        d = checks.digest(directory)
        if self.digests:
            self.op(f"{what} artifacts identical to first repetition",
                    d == self.digests[0], f"{d} != {self.digests[0]}")
        self.digests.append(d)


class Rep:
    """One repetition of a workload."""

    def __init__(self, children: list[Child]):
        self.children = children
        self.wall = sum(c.wall for c in children)
        self.raw_wall = sum(c.raw_wall for c in children)
        self.scale = self.wall / self.raw_wall
        self.rss_mb = max(c.rss_mb for c in children)


# ----------------------------------------------------------------- workloads

# A workload is its program processes, as (operation name, child.py spec), and
# one repetition: a fresh output directory, those processes, then the checks.
# ``per_stage`` asks for one process per pipeline stage where the workload
# otherwise runs several stages in one (the traced run's per-stage RSS).

def tdrive_specs(info: dict, per_stage: bool) -> list[tuple[str, dict]]:
    cfg = info["config"]
    if per_stage:
        return [(f"stage {s}", {"mode": "stage", "stage": s, "config": cfg}) for s in STAGES]
    return [("cityregions all", {"mode": "cli", "config": cfg, "argv": ["all", "--config", cfg]})]


def planted_specs(info: dict, per_stage: bool) -> list[tuple[str, dict]]:
    cfg = info["config"]
    return [(f"cityregions {s}", {"mode": "cli", "stage": s, "config": cfg,
                                  "argv": [s, "--config", cfg]}) for s in ("functions", "dtn")]


def fit_specs(info: dict, per_stage: bool) -> list[tuple[str, dict]]:
    return [("fit process", {"mode": "fits", "list": info["config"], "out": "fits"})]


def calls(run: Run, specs: list[tuple[str, dict]], traced: bool) -> list[Child]:
    return [run.call(name, trace=traced, **spec) for name, spec in specs]


def tdrive_rep(run: Run, info: dict, per_stage: bool = False, traced: bool = False) -> Rep:
    out = run.fresh_out()
    children = calls(run, tdrive_specs(info, per_stage), traced)
    if all(c.rc == 0 for c in children):
        run.op("ingest accounting", *checks.ingest_accounting(out))
        run.op("trip endpoint accounting", *checks.endpoint_accounting(out))
        recall = checks.stop_recall(out, run.path("truth", "dwells.txt"))
        info["stop_recall"] = recall
        run.op("stop recall", recall >= STOP_RECALL_FLOOR,
               f"{recall:.4f} < floor {STOP_RECALL_FLOOR}")
        run.op("frequent itemsets", *checks.itemsets_found(out))
        for name, ok, detail in checks.hub_labels(out, run.path("truth", "hubs.json")):
            run.op(name, ok, detail)
        expected = info["scenarios"] * info["runs"] * info["policies"]
        run.op("dtn rows", *checks.dtn_rows(out, expected))
        run.same_digest(out, "pipeline")
    return Rep(children)


def planted_rep(run: Run, info: dict, per_stage: bool = False, traced: bool = False) -> Rep:
    out = run.fresh_out()
    for name in ("events.txt", "tree.txt"):
        shutil.copy(run.path("seed", name), os.path.join(out, name))
    children = calls(run, planted_specs(info, per_stage), traced)
    if all(c.rc == 0 for c in children):
        run.op("frequent itemsets", *checks.itemsets_found(out))
        for name, ok, detail in checks.planted_labels(out, info["planted_labels"]):
            run.op(name, ok, detail)
        expected = info["scenarios"] * info["runs"] * info["policies"]
        run.op("dtn rows", *checks.dtn_rows(out, expected))
        run.same_digest(out, "stage")
    return Rep(children)


def fit_rep(run: Run, info: dict, per_stage: bool = False, traced: bool = False) -> Rep:
    out = run.fresh_out("fits")
    children = calls(run, fit_specs(info, per_stage), traced)
    families = [r[1] for r in checks.rows(run.path(info["config"]))]
    rcs = children[0].data.get("rcs", [])
    recovered = 0
    for i, family in enumerate(families):
        if not run.op(f"fit call {i:03d}", i < len(rcs) and rcs[i] == 0,
                      f"exit {rcs[i] if i < len(rcs) else 'missing'}"):
            continue
        ok, detail, best = checks.fit_output(os.path.join(out, f"{i:03d}"))
        run.op(f"fit output {i:03d}", ok, detail)
        recovered += best == family
    info["recovery_ratio"] = recovered / len(families)
    run.same_digest(out, "fit")
    return Rep(children)


# workload -> (one repetition, its program processes)
WORKLOADS = {
    "tdrive_week": (tdrive_rep, tdrive_specs),
    "planted_city": (planted_rep, planted_specs),
    "fit_batch": (fit_rep, fit_specs),
}


# ------------------------------------------------------------------- metrics

def repeat(run: Run, rep_fn, info: dict) -> list[Rep]:
    """Repeat while the next repetition is predicted to end within --seconds."""
    start = time.monotonic()
    reps = []
    while True:
        t = time.monotonic()
        reps.append(rep_fn(run, info))
        took = time.monotonic() - t
        if time.monotonic() - start + took > run.seconds:
            return reps


def end_to_end(run: Run, info: dict, reps: list[Rep], probes: list[float],
               procs: int) -> dict[str, float]:
    wall = statistics.median(r.wall for r in reps)
    rss = statistics.median(r.rss_mb for r in reps)
    setups = probes + [c.setup for r in reps for c in r.children]
    points = info["points"]
    return {
        "wall_s": wall,
        # median single-process set-up, times the processes one repetition starts
        "setup_s": procs * statistics.median(setups),
        "peak_rss_mb": rss,
        "points_per_s": points / wall,
        "rss_bytes_per_point": rss * MB / points,
    }


def per_layer(run: Run, info: dict, untraced: Rep, traced: Rep) -> dict[str, float]:
    import tracer

    m = {name: 0.0 for name in PER_LAYER}
    table: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for child in traced.children:
        for name, row in tracer.summarize(child.data.get("spans", [])).items():
            agg = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += row[k]
        for name, n in child.data.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
    for span, metric in SPAN_METRICS.items():
        m[metric] = table.get(span, {}).get("total_s", 0.0)
    for span in CALL_METRICS:
        m[span + ".calls"] = table.get(span, {}).get("calls", 0)
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    m["ingest.parse_trace_file.calls"] = sum(
        table.get(f"ingest.parse_trace_file.{fmt}", {}).get("calls", 0)
        for fmt in ("beijing", "canonical"))
    if counts.get("stats.fits"):
        m["stats.converged_ratio"] = counts["stats.fits_converged"] / counts["stats.fits"]
    for child in traced.children:
        if child.stage:
            m[f"pipeline.stage.{child.stage}.peak_rss_mb"] = child.rss_mb

    out = run.path("out")
    ran = {s for s in STAGES if f"pipeline.stage.{s}" in table}
    if "ingest" in ran:
        s = {k: int(v) for k, v in checks.key_values(
            os.path.join(out, "ingest_summary.txt")).items()}
        m.update({"ingest.lines": s["input_lines"], "ingest.accepted": s["accepted"],
                  "ingest.deduplicated": s["deduplicated"], "ingest.rejected": s["rejected"],
                  "ingest.accept_ratio": s["accepted"] / s["input_lines"]})
        m["trajectory.great_circle_per_point"] = (
            m["trajectory.great_circle.calls"] / s["points_written"])
    if "trips" in ran:
        m["trajectory.stops"] = checks.count_lines(os.path.join(out, "stops.txt"))
        m["trajectory.trips"] = checks.count_lines(os.path.join(out, "trips.txt"))
        m["trajectory.stop_recall"] = info.get("stop_recall", 0.0)
    if "regions" in ran:
        m["regions.leaves"] = checks.count_lines(os.path.join(out, "tree.txt"))
        m["regions.events"] = checks.count_lines(os.path.join(out, "events.txt"))
        m["regions.dropped_endpoints"] = int(checks.key_values(
            os.path.join(out, "regions_dropped.txt"))["dropped_endpoints"])
    if "functions" in ran:
        m["functions.frequent_itemsets"] = checks.count_lines(os.path.join(out, "itemsets.txt"))
        labels = list(checks.labels(out).values())
        for label in ("workplace", "entertainment", "residential", "other"):
            m[f"functions.labels.{label}"] = labels.count(label)
        visits = sum(1 for r in checks.rows(os.path.join(out, "events.txt")) if r[3] == "visit")
        m["events_per_s"] = visits / untraced.wall
    if "dtn" in ran:
        m["dtn.delivery_ratio"] = checks.delivery_ratio(out)
        m["dtn.encounters.recompute_ratio"] = m["dtn.encounters.calls"] / info["scenarios"]
    if ran:
        m["pipeline.artifact_bytes"] = checks.tree_bytes(out)
    lat = [x * c.scale for c in untraced.children for x in c.data.get("latencies", [])]
    if lat:
        q = statistics.quantiles(lat, n=10, method="inclusive")
        m.update({"fits_per_s": len(lat) / untraced.wall, "fit_latency_p50_s": q[4],
                  "fit_latency_p90_s": q[8],
                  "stats.recovery_ratio": info["recovery_ratio"]})
    m["trace.untraced_wall_s"] = untraced.wall
    m["trace.overhead_s"] = traced.wall - untraced.wall
    info["span_table"] = table
    return m


# ---------------------------------------------------------------- provenance

def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _git_revision() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(run: Run, info: dict, input_digest: str) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": run.workload,
        "seed": run.seed,
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "input": {k: v for k, v in info.items()
                  if k in ("points", "point_kind", "taxis", "sample_sets")},
        "input_digest": input_digest,
        "caveats": CAVEATS,
    }


# ---------------------------------------------------------------------- main

def execute(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Generate inputs, run the workload, and return everything to print."""
    import gen

    rep_fn, specs_fn = WORKLOADS[workload]
    run = Run(workload, seed, seconds, work)
    info = gen.GENERATORS[workload](work, seed)
    input_digest = checks.digest(work)
    result: dict = {"provenance": provenance(run, info, input_digest)}
    if trace:
        untraced = rep_fn(run, info, per_stage=True)
        traced = rep_fn(run, info, per_stage=True, traced=True)
        reps = [untraced, traced]
        metrics = per_layer(run, info, untraced, traced)
        metrics["error_rate"] = len(run.failures) / run.attempted
        units = PER_LAYER
        result["spans"] = info["span_table"]
    else:
        specs = specs_fn(info, per_stage=False)
        name, first = specs[0]  # every process of a workload sets up the same way
        probes = [run.call(f"set-up only, as {name}", setup_only=True, **first).setup
                  for _ in range(SETUP_PROBES)]
        reps = repeat(run, rep_fn, info)
        metrics = end_to_end(run, info, reps, probes, len(specs))
        units = END_TO_END
    result["repetitions"] = [{"wall_s": r.wall, "raw_wall_s": r.raw_wall, "speed_scale": r.scale}
                             for r in reps]
    result["digest"] = run.digests[0] if run.digests else None
    result["failures"] = run.failures
    result["line"] = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cityregions", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    if "spans" in result:
        print(f"{'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(result["spans"].items()):
            print(f"{name:<40} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for rep in result["repetitions"]:
        print("repetition " + json.dumps(rep))
    for failure in result["failures"]:
        print("FAILED " + failure)
    print(f"digest {result['digest']}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
