"""Taxi-GPS mobility toolkit.

Turns raw taxi traces into extracted trips, a visit-density quad-tree city
partition, workplace/entertainment/residential region labels via frequent
itemset mining, and a delay-tolerant-network target-set simulation. Each
public name is imported from the stage module that defines it on first use.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "CityBounds", "GridCounts", "Trace", "clip_to_bounds", "parse_trace_file",
    "parse_trace_files",
    "StopTable", "TripTable", "detect_stops", "extract_trips", "great_circle", "segment",
    "stops_and_trips",
    "EventTable", "LeafTable", "QuadTree", "build_quadtree", "grid_visit_counts", "locate",
    "trips_to_events",
    "CorrelationResult", "FitResult", "ModelComparison", "compare_models",
    "fit_exponential", "fit_lognormal", "fit_powerlaw", "fit_truncated_powerlaw",
    "pearson",
    "FrequentItemset", "RegionFunction", "TimeWindows", "TransactionTable",
    "apriori", "classify_regions",
    "Encounters", "SimOutcome", "SimScenario", "encounters", "propagate",
    "select_history", "select_oracle", "select_random",
    "__version__",
]


def __getattr__(name: str):
    """A public name, from the first stage module in dependency order that has
    it. Any other name is no attribute: ``from cityregions import dtn`` then
    imports the submodule."""
    if name in __all__:
        for stem in ("ingest", "trajectory", "regions", "stats", "functions", "dtn"):
            module = importlib.import_module(f"{__name__}.{stem}")
            if hasattr(module, name):
                globals()[name] = getattr(module, name)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
