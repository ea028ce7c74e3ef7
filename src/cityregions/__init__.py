"""Taxi-GPS mobility toolkit.

Turns raw taxi traces into extracted trips, a visit-density quad-tree city
partition, workplace/entertainment/residential region labels via frequent
itemset mining, and a delay-tolerant-network target-set simulation.
"""

from .ingest import (CityBounds, GridCounts, Trace, clip_to_bounds, parse_trace_file,
                     parse_trace_files)
from .trajectory import (StopTable, TripTable, detect_stops, extract_trips, great_circle,
                         segment, stops_and_trips)
from .regions import (EventTable, LeafTable, QuadTree, build_quadtree, grid_visit_counts,
                      locate, trips_to_events)
from .stats import (CorrelationResult, FitResult, ModelComparison, compare_models,
                    fit_exponential, fit_lognormal, fit_powerlaw,
                    fit_truncated_powerlaw, pearson)
from .functions import (FrequentItemset, RegionFunction, TimeWindows,
                        TransactionTable, apriori, classify_regions)
from .dtn import (Encounters, SimOutcome, SimScenario, encounters, propagate,
                  select_history, select_oracle, select_random)

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
