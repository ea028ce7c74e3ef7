"""Outside-in tracing: spans and counters around the program's public functions.

Each wrapped function is replaced at the module attribute its caller looks
up (``pipeline.parse_trace_file`` as well as ``ingest.parse_trace_file``,
because ``pipeline`` imported the name). Nothing in the program changes; the
wrappers live only in the process that installs them. Spans are kept in
memory as ``[name, start, end, parent]`` and handed back when the run ends.
Functions called hundreds of thousands of times get a counter instead of a
span, so tracing does not dominate what it measures.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, module, attr: str, name: str | Callable[[tuple, dict], str],
             on_result: Callable[[object, tuple, dict], None] | None = None) -> None:
        """Record a span around every call of module.attr."""
        fn = getattr(module, attr)
        spans, stack, now = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else (lambda a, k, _n=name: _n)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([namer(args, kwargs), now(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of module.attr without timing them."""
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from cityregions import dtn, functions, ingest, pipeline, regions, stats, trajectory

    counts = tracer.counts

    def parse_name(args, kwargs):
        return "ingest.parse_trace_file." + str(_arg(args, kwargs, 1, "fmt"))

    for module in (ingest, pipeline):
        tracer.span(module, "parse_trace_file", parse_name)
    tracer.span(pipeline, "clip_to_bounds", "ingest.clip_to_bounds")
    tracer.span(pipeline, "write_canonical", "ingest.write_canonical")

    for attr in ("segment", "detect_stops", "extract_trips", "load_trips", "write_trips"):
        tracer.span(trajectory, attr, "trajectory." + attr)
    tracer.count(trajectory, "great_circle", "trajectory.great_circle.calls")

    for attr in ("build_quadtree", "trips_to_events", "write_events", "load_events",
                 "load_tree"):
        tracer.span(regions, attr, "regions." + attr)
    tracer.count(regions, "locate", "regions.locate.calls")

    def fit_done(result, args, kwargs):
        counts["stats.fits"] += 1
        counts["stats.fits_converged"] += bool(result.converged)

    for attr in ("fit_exponential", "fit_lognormal", "fit_powerlaw", "fit_truncated_powerlaw"):
        tracer.span(stats, attr, "stats." + attr, fit_done)
    tracer.span(stats, "compare_models", "stats.compare_models")
    tracer.span(stats, "empirical_ccdf", "stats.empirical_ccdf")

    tracer.span(functions, "hourly_transactions", "functions.hourly_transactions",
                lambda r, a, k: counts.update({"functions.tables": len(r)}))
    tracer.span(functions, "apriori", "functions.apriori")
    tracer.span(functions, "classify_regions", "functions.classify_regions")

    tracer.span(dtn, "run_scenario", "dtn.run_scenario")
    tracer.span(dtn, "in_window", "dtn.in_window")
    tracer.span(dtn, "encounters", "dtn.encounters",
                lambda r, a, k: counts.update({"dtn.encounter_pairs": len(r)}))
    for attr in ("select_oracle", "select_history", "select_random"):
        tracer.span(dtn, attr, "dtn.select")
    tracer.span(dtn, "propagate", "dtn.propagate")

    def stage_name(args, kwargs):
        return "pipeline.stage." + str(_arg(args, kwargs, 1, "stage"))

    tracer.span(pipeline, "run", stage_name)
    tracer.span(pipeline, "load_config", "pipeline.load_config")
    tracer.span(pipeline, "file_hash", "pipeline.file_hash",
                lambda r, a, k: counts.update(
                    {"pipeline.file_hash.bytes": os.path.getsize(_arg(a, k, 0, "path"))}))
    tracer.span(pipeline, "atomic_write", "pipeline.atomic_write")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap, since the program is
    single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out
