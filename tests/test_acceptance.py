"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
model-recovery criterion is asserted per generating family at the stated
95/100 bar; see the test docstring for the statistical caveat on nested
families.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from cityregions.dtn import (HISTORY, ORACLE, RANDOM, SimScenario, run_scenario,
                             select_random)
from cityregions.functions import apriori, classify_regions, hourly_transactions
from cityregions.fixtures import write_fixture
from cityregions.ingest import CityBounds
from cityregions.pipeline import derive_seed, file_hash, load_config, run
from cityregions.regions import build_quadtree, locate
from cityregions.stats import (EXPONENTIAL, LOGNORMAL, POWERLAW,
                               TRUNCATED_POWERLAW, FitError, FitResult,
                               compare_models, fit_all, fit_exponential, pearson)
from cityregions.synth import (PLANTED_LABELS, correlated_grid,
                               persistent_dtn_trace, planted_city_events)

from .oracles import brute_force_itemsets, leaf_depths
from .test_functions import EXAMPLE_ROWS, table


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL -- {description} "
              f"[{time.time() - start:.1f}s]")
        raise
    print(f"\nACCEPTANCE {number}: PASS -- {description} [{time.time() - start:.1f}s]")


def test_criterion_1_worked_example_lattice():
    with criterion(1, "Apriori reproduces the worked 3-row table lattice exactly"):
        got = {fi.items: Fraction(fi.count, fi.n_rows)
               for fi in apriori(table(EXAMPLE_ROWS), 0.2)}
        oracle = {items: Fraction(count, 3) for items, count in
                  brute_force_itemsets([frozenset(r) for r in EXAMPLE_ROWS],
                                       0.2).items()}
        assert got == oracle
        assert got[frozenset({0})] == Fraction(2, 3)
        assert got[frozenset({1})] == Fraction(1, 3)
        assert got[frozenset({3, 4})] == Fraction(1)
        assert got[frozenset({0, 3, 4})] == Fraction(2, 3)


def test_criterion_2_apriori_oracle_equivalence():
    with criterion(2, "Apriori == exhaustive enumeration on 200 random tables"):
        start = time.time()
        rng = random.Random(2024)
        minsups = (0.1, 0.2, 0.5)
        for trial in range(200):
            rows = []
            while not rows:
                m = rng.randrange(1, 16)
                n_rows = rng.randrange(1, 201)
                p = rng.uniform(0.05, 0.4)
                rows = [frozenset(i for i in range(m) if rng.random() < p)
                        for _ in range(n_rows)]
                rows = [r for r in rows if r]
            minsup = minsups[trial % 3]
            got = {fi.items: fi.count for fi in apriori(table(rows), minsup)}
            assert got == brute_force_itemsets(rows, minsup), \
                f"trial {trial}: m={m} rows={len(rows)} minsup={minsup}"
        assert time.time() - start < 10.0


def random_cloud(seed):
    """Mixed uniform + clustered points inside the unit box, 1e4..1e6 of them."""
    rng = np.random.default_rng(seed)
    n = int(10 ** rng.uniform(4, 6))
    n_uniform = n // 3
    lats = [rng.uniform(0, 1, n_uniform)]
    lons = [rng.uniform(0, 1, n_uniform)]
    remaining = n - n_uniform
    while remaining > 0:
        size = min(remaining, int(rng.uniform(0.1, 0.4) * n) + 1)
        c_lat, c_lon = rng.uniform(0.1, 0.9, 2)
        spread = rng.uniform(0.005, 0.08)
        lats.append(np.clip(rng.normal(c_lat, spread, size), 0, 1))
        lons.append(np.clip(rng.normal(c_lon, spread, size), 0, 1))
        remaining -= size
    return np.column_stack([np.concatenate(lats), np.concatenate(lons)])


def leaf_table(tree):
    leaves = tree.leaves
    bounds = np.column_stack((leaves.lat_min, leaves.lat_max, leaves.lon_min, leaves.lon_max))
    return bounds, leaves.region


def brute_force_locate_many(root, probes):
    """Vectorized linear containment scan over the leaf table."""
    bounds, ids = leaf_table(root)
    rb = root.bounds
    out = []
    for lat, lon in probes:
        lat_ok = (bounds[:, 0] <= lat) & ((lat < bounds[:, 1])
                                          | ((lat == bounds[:, 1])
                                             & (bounds[:, 1] == rb.lat_max)))
        lon_ok = (bounds[:, 2] <= lon) & ((lon < bounds[:, 3])
                                          | ((lon == bounds[:, 3])
                                             & (bounds[:, 3] == rb.lon_max)))
        hits = np.flatnonzero(lat_ok & lon_ok)
        assert hits.size == 1, f"probe ({lat}, {lon}) hit {hits.size} leaves"
        out.append(int(ids[hits[0]]))
    return out


def test_criterion_3_quadtree_invariants():
    with criterion(3, "quad-tree tiling, threshold, and locate-vs-scan on 50 clouds"):
        start = time.time()
        box = CityBounds(0.0, 1.0, 0.0, 1.0)
        for seed in range(50):
            cloud = random_cloud(seed)
            n = len(cloud)
            root = build_quadtree(cloud, box, 0.01)
            bounds, _ = leaf_table(root)
            area = ((bounds[:, 1] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 2])).sum()
            assert area == pytest.approx(1.0, rel=1e-9)

            limit = math.ceil(0.01 * n)
            depths = list(zip(root.leaves.visit_count.tolist(), leaf_depths(root)))
            assert sum(count for count, _ in depths) == n
            for count, depth in depths:
                if depth < 16:
                    assert count <= limit

            rng = np.random.default_rng(1000 + seed)
            probes = rng.uniform(0, 1, (1000, 2)).tolist()
            expected = brute_force_locate_many(root, probes)
            got = locate(root, *np.array(probes).T).tolist()
            assert got == expected
        assert time.time() - start < 60.0


# Set CITYREGIONS_DATA_DIR to a directory holding local copies of the public
# corpora to enable criterion 4: rome.txt (one file, rome format), and
# sanfrancisco/ plus beijing/ directories of per-taxi files.
DATA_DIR = os.environ.get("CITYREGIONS_DATA_DIR")

REFERENCE_LEAF_COUNTS = {
    "rome": (367, CityBounds(41.79, 41.98, 12.36, 12.61)),
    "sanfrancisco": (211, CityBounds(37.70, 37.81, -122.52, -122.36)),
    "beijing": (259, CityBounds(39.41, 41.08, 115.37, 117.5)),
}


def _city_points(city):
    from cityregions.ingest import clip_to_bounds, parse_trace_file, parse_trace_files

    _, bounds = REFERENCE_LEAF_COUNTS[city]
    if city == "rome":
        trace, _ = parse_trace_file(os.path.join(DATA_DIR, "rome.txt"), "rome")
    else:
        city_dir = os.path.join(DATA_DIR, city)
        files = [(os.path.join(city_dir, name), city,
                  os.path.splitext(name)[0].replace("new_", ""))
                 for name in sorted(os.listdir(city_dir))]
        trace, _ = parse_trace_files(files, 8.0 if city == "beijing" else 0.0)
    return clip_to_bounds(trace, bounds), bounds


@pytest.mark.skipif(DATA_DIR is None,
                    reason="public taxi datasets unavailable "
                           "(CITYREGIONS_DATA_DIR unset); criterion 4 waived "
                           "in favor of criterion 3 per the acceptance terms")
def test_criterion_4_reference_leaf_counts():
    with criterion(4, "Rome/SF/Beijing leaf counts within 15% of 367/211/259"):
        for city, (expected, _) in REFERENCE_LEAF_COUNTS.items():
            trace, bounds = _city_points(city)
            root = build_quadtree(np.column_stack((trace.lat, trace.lon)), bounds, 0.01)
            got = len(root.leaves.region)
            print(f"\n  {city}: {got} leaf regions (reference {expected})")
            assert abs(got - expected) <= 0.15 * expected, (city, got, expected)


GENERATORS = {
    EXPONENTIAL: (lambda rng: rng.exponential(5500.0, 10000), 5.5e-6),
    LOGNORMAL: (lambda rng: rng.lognormal(1.0, 0.5, 10000), 1e-9),
    POWERLAW: (lambda rng: (1.0 - rng.random(10000)) ** (-1.0 / 1.5), 1.0),
    TRUNCATED_POWERLAW: (None, 1.0),  # rejection-sampled below
}


def tpl_draws(rng, n=10000, alpha=1.5, rate=0.1, x_min=1.0):
    out = []
    while len(out) < n:
        x = x_min * (1.0 - rng.random(4 * n)) ** (-1.0 / (alpha - 1.0))
        keep = rng.random(4 * n) < np.exp(-rate * (x - x_min))
        out.extend(x[keep].tolist())
    return np.asarray(out[:n])


def test_criterion_5_exponential_rate_recovery():
    with criterion(5, "Exp(1/5500) rate recovered within 3% on n=10,000"):
        rng = np.random.default_rng(5500)
        fit = fit_exponential(rng.exponential(5500.0, 10000))
        assert fit.params["rate"] == pytest.approx(1.0 / 5500.0, rel=0.03)


def test_criterion_5_akaike_weight_identities():
    with criterion(5, "weights sum to 1 within 1e-9; dAIC=2 -> {0.7311, 0.2689}"):
        def mk(model, ll, k):
            return FitResult(model=model, params={}, log_likelihood=ll, k=k,
                             aic=-2 * ll + 2 * k, n=10)

        cmp = compare_models([mk(EXPONENTIAL, -100.0, 1),
                              mk(LOGNORMAL, -100.0, 2),
                              mk(POWERLAW, -104.5, 1)])
        assert sum(cmp.weights) == pytest.approx(1.0, abs=1e-9)
        two = compare_models([mk(EXPONENTIAL, -100.0, 1), mk(LOGNORMAL, -100.0, 2)])
        assert two.deltas == pytest.approx((0.0, 2.0))
        assert two.weights[0] == pytest.approx(0.7311, abs=1e-4)
        assert two.weights[1] == pytest.approx(0.2689, abs=1e-4)


def test_criterion_5_family_recovery():
    """100 seeded trials per generating family, all four candidates fitted.

    Statistical caveat (see README): for a generator nested inside the
    truncated power law at a parameter boundary (pure power law at rate -> 0),
    AIC is expected to prefer the superset family on roughly 8% of samples
    (boundary likelihood-ratio effect), so the 95/100 bar is not statistically
    attainable for the powerlaw family; the assert is kept faithful to the
    stated criterion and the observed tallies are printed either way.
    """
    with criterion(5, "compare_models recovers each generating family >= 95/100"):
        start = time.time()
        tallies = {}
        for idx, (family, (gen, x_min)) in enumerate(GENERATORS.items()):
            wins = 0
            for trial in range(100):
                rng = np.random.default_rng([idx, trial])
                x = gen(rng) if gen is not None else tpl_draws(rng)
                try:
                    best = compare_models(fit_all(x, x_min)[0]).best.model
                except FitError:
                    best = None
                wins += best == family
            tallies[family] = wins
        print(f"\n  recovery tallies: {tallies} "
              f"(pooled {sum(tallies.values())}/400)")
        assert time.time() - start < 120.0
        for family, wins in tallies.items():
            assert wins >= 95, (
                f"{family}: {wins}/100 (boundary-nested families cap near 92; "
                f"see the README caveat on AIC and nested families)")


def test_criterion_6_pearson_sanity():
    with criterion(6, "r = +/-1 on exact linear data; r > 0.9 on noisy grids"):
        x = np.arange(1.0, 101.0)
        assert pearson(x, 2 * x + 3).r == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -x).r == pytest.approx(-1.0, abs=1e-12)
        for seed in range(5):
            intersections, visits = correlated_grid(seed, n_cells=100)
            assert pearson(intersections, visits).r > 0.9


def test_criterion_7_functional_label_recovery():
    with criterion(7, "planted workplace/entertainment/residential labels "
                      "recovered on 20 seeded cities"):
        start = time.time()
        for seed in range(20):
            events = planted_city_events(seed=seed)
            hourly = {key: apriori(tbl, 0.2)
                      for key, tbl in hourly_transactions(events).items()}
            labels = {rf.region_id: rf.label for rf in classify_regions(hourly)}
            for region, expected in PLANTED_LABELS.items():
                assert labels[region] == expected, f"seed {seed}, region {region}"
        assert time.time() - start < 60.0


def test_criterion_8_dtn_policy_ordering():
    with criterion(8, "mean delivery ratio: oracle >= history > random, history "
                      ">= 1.5x random over 100 seeds"):
        start = time.time()
        totals = {ORACLE: 0.0, HISTORY: 0.0, RANDOM: 0.0}
        for seed in range(100):
            trace = persistent_dtn_trace(seed=seed)
            subs = frozenset(select_random(trace.population, 100,
                                           derive_seed(seed, "subs")))
            for policy in totals:
                scenario = SimScenario(
                    eval_window=trace.eval_window,
                    hot_regions=trace.hot_regions,
                    subscribers=subs,
                    publisher_count=100,
                    policy=policy,
                    history_window=trace.history_window,
                    rng_seed=derive_seed(seed, policy))
                totals[policy] += run_scenario(trace.events, scenario).delivery_ratio
        means = {p: v / 100 for p, v in totals.items()}
        print(f"\n  mean delivery ratios: " +
              ", ".join(f"{p}={v:.3f}" for p, v in means.items()) +
              f"; history/random improvement "
              f"{(means[HISTORY] - means[RANDOM]) / means[RANDOM]:+.0%}")
        assert means[ORACLE] >= means[HISTORY] > means[RANDOM]
        assert means[ORACLE] > means[HISTORY]  # oracle strictly greatest
        assert means[HISTORY] >= 1.5 * means[RANDOM]
        assert time.time() - start < 300.0


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "full pipeline twice on the bundled fixture is "
                      "byte-identical"):
        d = tmp_path / "fixture"
        write_fixture(str(d))
        cfg = load_config(str(d / "config.json"))
        run(cfg, "all")
        first = {name: file_hash(os.path.join(cfg.out_dir, name))
                 for name in sorted(os.listdir(cfg.out_dir))}
        run(cfg, "all")
        second = {name: file_hash(os.path.join(cfg.out_dir, name))
                  for name in sorted(os.listdir(cfg.out_dir))}
        assert first == second
        assert len(first) >= 15
