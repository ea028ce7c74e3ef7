"""Taxi-GPS mobility toolkit.

Turns raw taxi traces into extracted trips, a visit-density quad-tree city
partition, workplace/entertainment/residential region labels via frequent
itemset mining, and a delay-tolerant-network target-set simulation.
"""

from .ingest import CityBounds, GpsPoint, GridCounts, clip_to_bounds, parse_trace
from .trajectory import (StopPoint, Trajectory, Trip, detect_stops, extract_trips,
                         great_circle, segment)
from .regions import (EventTable, QuadNode, build_quadtree, grid_visit_counts,
                      locate, trips_to_events)
from .stats import (CorrelationResult, FitResult, ModelComparison, compare_models,
                    fit_exponential, fit_lognormal, fit_powerlaw,
                    fit_truncated_powerlaw, pearson)
from .functions import (FrequentItemset, RegionFunction, TimeWindows,
                        TransactionTable, apriori, build_transactions,
                        classify_regions)
from .dtn import (EncounterEvent, SimOutcome, SimScenario, encounters, propagate,
                  select_history, select_oracle, select_random)

__version__ = "0.1.0"

__all__ = [
    "CityBounds", "GpsPoint", "GridCounts", "clip_to_bounds", "parse_trace",
    "StopPoint", "Trajectory", "Trip", "detect_stops", "extract_trips",
    "great_circle", "segment",
    "EventTable", "QuadNode", "build_quadtree", "grid_visit_counts", "locate",
    "trips_to_events",
    "CorrelationResult", "FitResult", "ModelComparison", "compare_models",
    "fit_exponential", "fit_lognormal", "fit_powerlaw", "fit_truncated_powerlaw",
    "pearson",
    "FrequentItemset", "RegionFunction", "TimeWindows", "TransactionTable",
    "apriori", "build_transactions", "classify_regions",
    "EncounterEvent", "SimOutcome", "SimScenario", "encounters", "propagate",
    "select_history", "select_oracle", "select_random",
    "__version__",
]
