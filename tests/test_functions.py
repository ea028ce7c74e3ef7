import io
import random
import re
from datetime import date
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityregions import functions
from cityregions.functions import (ENTERTAINMENT, LABELS, OTHER, RESIDENTIAL, WORKPLACE,
                                   FrequentItemset, RegionFunction, TimeWindows,
                                   TransactionTable, apriori, classify_regions,
                                   hourly_transactions, load_labels, local_hour_key, min_count,
                                   write_labels)
from cityregions.regions import VISIT, EventTable
from cityregions.synth import PLANTED_LABELS, SYNTH_T0, planted_city_events

from .oracles import (VisitEvent, brute_force_itemsets, event_table, reference_apriori,
                      reference_candidates, reference_hourly_transactions,
                      reference_lexsort_hour_tables, rows_of)

MONDAY = date(2008, 2, 4)


def table(rows, hour=(MONDAY, 10)):
    """The hour table of one row per region set, a visit per region."""
    visits = [(r, region) for r, regions in enumerate(rows) for region in sorted(regions)]
    row, region = np.array(visits, dtype=np.int64).reshape(-1, 2).T
    return TransactionTable(hour_key=hour, n_rows=len(rows), row=row, region=region)


def as_support_map(itemsets):
    return {fi.items: (fi.count, fi.n_rows) for fi in itemsets}


# the worked three-taxi example: visit counts per region
# {2,3,0,2,1}, {1,0,0,1,2}, {0,0,0,2,2}  ->  rows (1,1,0,1,1), (1,0,0,1,1), (0,0,0,1,1)
EXAMPLE_COUNTS = [(2, 3, 0, 2, 1), (1, 0, 0, 1, 2), (0, 0, 0, 2, 2)]
EXAMPLE_ROWS = [{0, 1, 3, 4}, {0, 3, 4}, {3, 4}]


class TestBuildTransactions:
    @staticmethod
    def events_for_counts(counts, hour=10):
        events = []
        for taxi, per_region in enumerate(counts):
            t0 = SYNTH_T0 + hour * 3600
            for region, c in enumerate(per_region):
                for i in range(c):
                    events.append(VisitEvent(f"t{taxi}", region,
                                             t0 + 60.0 * (region * 10 + i), VISIT))
        return events

    def test_worked_example_rows(self):
        events = self.events_for_counts(EXAMPLE_COUNTS)
        t = hourly_transactions(event_table(events))[(MONDAY, 10)]
        assert list(rows_of(t)) == [frozenset(r) for r in EXAMPLE_ROWS]

    def test_taxi_without_events_has_no_row(self):
        events = self.events_for_counts([(1, 0, 0, 0, 0), (0, 0, 0, 0, 0)])
        t = hourly_transactions(event_table(events))[(MONDAY, 10)]
        assert t.n_rows == 1

    def test_events_in_other_hours_excluded(self):
        events = (self.events_for_counts([(1, 0)], hour=10)
                  + self.events_for_counts([(0, 1)], hour=11))
        t = hourly_transactions(event_table(events))[(MONDAY, 10)]
        assert set(t.region.tolist()) == {0}

    def test_local_offset_shifts_hour(self):
        ts = SYNTH_T0 + 10 * 3600
        assert local_hour_key(ts, 0) == (MONDAY, 10)
        assert local_hour_key(ts, 8) == (MONDAY, 18)
        assert local_hour_key(ts, -11) == (date(2008, 2, 3), 23)

    def test_hourly_transactions_partitions_events(self):
        events = (self.events_for_counts([(2, 1)], hour=9)
                  + self.events_for_counts([(1, 1)], hour=14))
        tables = hourly_transactions(event_table(events))
        assert set(tables) == {(MONDAY, 9), (MONDAY, 14)}


# local offsets in hours, whole and fractional; the last is 0.9 us, which
# timedelta rounds to 1 us
OFFSETS = [0.0, 8.0, -5.5, 5.75, 1 / 3, 2.5e-10]
# an instant that rounds up to the next hour at the microsecond
ROUNDS_UP = 1202223599.9999995


def timestamps_near_hours():
    """Instants within a microsecond or so of an hour boundary."""
    return st.tuples(st.integers(-300_000, 1_000_000),
                     st.sampled_from([0.0, 5e-7, -5e-7, 4.999e-7, -4.999e-7, 5.001e-7,
                                      1e-6, -1e-6, 1.5e-6])).map(lambda p: p[0] * 3600.0 + p[1])


# an hour after the first instant that datetime takes at every offset of
# -14 h to +14 h, and five hours before the last one
YEAR_1 = -62135596800.0 + 15 * 3600
YEAR_9999 = 253402300800.0 - 19 * 3600


class TestHourIndex:
    """The integer hour keys against local_hour_key and the per-event tables."""

    def test_rounding_to_the_microsecond_comes_first(self):
        assert local_hour_key(ROUNDS_UP) == (date(2008, 2, 5), 15)
        events = [VisitEvent("a", 1, ROUNDS_UP, VISIT)]
        assert list(hourly_transactions(event_table(events))) == [(date(2008, 2, 5), 15)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["b", "a", "c", "a b"]), st.integers(0, 6),
                              st.one_of(st.floats(-2e10, 2e10), timestamps_near_hours(),
                                        st.just(ROUNDS_UP))), max_size=40),
           st.sampled_from(OFFSETS))
    def test_equals_per_event_tables(self, rows, offset):
        """Keys, key order and rows as local_hour_key and per-event sets give them."""
        events = [VisitEvent(t, r, ts, VISIT) for t, r, ts in rows]
        tables = hourly_transactions(event_table(events), offset)
        assert {key: rows_of(t) for key, t in tables.items()} == \
            reference_hourly_transactions(events, offset)
        assert list(tables) == sorted(tables)
        assert all(t.hour_key == key for key, t in tables.items())

    @settings(max_examples=300, deadline=None)
    @given(n_ids=st.integers(1, 6),
           rows=st.lists(st.tuples(st.integers(0, 5), st.integers(-1, 3), st.integers(0, 7),
                                   st.floats(0, 3599.999)), min_size=1, max_size=40),
           base=st.sampled_from([YEAR_1, 1.2e9, YEAR_9999]),
           offset=st.sampled_from([-14.0, -5.5, 0.0, 8.0, 14.0]))
    @example(n_ids=3, rows=[(2, 1, 4, 10.0), (0, 0, 5, 20.0), (2, 1, 6, 5.0), (0, 1, 7, 1.0),
                            (2, 0, 4, 3599.0), (0, 0, 5, 0.0)], base=1.2e9, offset=0.0)
    @example(n_ids=6, rows=[(5, 3, 1, 0.0), (1, -1, 2, 0.0), (5, 3, 0, 0.0)], base=YEAR_1,
             offset=-14.0)
    @example(n_ids=6, rows=[(4, 3, 1, 3599.999), (1, -1, 2, 0.0), (4, 3, 0, 0.0)],
             base=YEAR_9999, offset=14.0)
    def test_packed_key_sorts_as_lexsort(self, n_ids, rows, base, offset):
        """Each table's row numbers and regions, in order, as ``np.lexsort((taxi,
        hour))`` puts them: (hour, taxi) pairs repeated out of input order,
        ids that no row uses, and instants within hours of datetime's year-1
        and year-9999 ends under offsets of up to 14 h either way."""
        ids = tuple(f"t{k}" for k in range(n_ids))
        taxi = np.array([k % n_ids for k, _, _, _ in rows], np.int64)
        t = np.array([base + h * 3600.0 + s for _, h, _, s in rows])
        table = EventTable(ids, taxi, np.array([r for _, _, r, _ in rows], np.int64), t,
                           np.ones(len(rows), bool))
        got = hourly_transactions(table, offset)
        want = reference_lexsort_hour_tables(table, offset)
        assert list(got) == list(want)
        assert {key: (tab.n_rows, tab.row.tolist(), tab.region.tolist())
                for key, tab in got.items()} == want

    @pytest.mark.parametrize("then_nan", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e13, -1e12])
    def test_bad_timestamp_fails_as_before(self, bad, then_nan):
        events = [VisitEvent("a", 1, 1.2e9, VISIT), VisitEvent("b", 2, bad, VISIT)]
        events += [VisitEvent("c", 3, float("nan"), VISIT)] * then_nan
        with pytest.raises(Exception) as expected:
            reference_hourly_transactions(events)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            hourly_transactions(event_table(events))


class TestMinCount:
    def test_decimal_face_value(self):
        # a support of exactly minsup is frequent
        assert min_count(5, 0.2) == 1
        assert min_count(200, 0.1) == 20
        assert min_count(3, 0.2) == 1
        assert min_count(10, 0.25) == 3
        assert min_count(4, 1.0) == 4


class TestApriori:
    def test_worked_example_full_lattice(self):
        t = table(EXAMPLE_ROWS)
        got = as_support_map(apriori(t, 0.2))
        expected = {frozenset(s): c for s, c in brute_force_itemsets(
            [frozenset(r) for r in EXAMPLE_ROWS], 0.2).items()}
        assert {k: c for k, (c, _) in got.items()} == expected
        # spot checks straight from the example
        assert got[frozenset({0})] == (2, 3)
        assert got[frozenset({1})] == (1, 3)
        assert got[frozenset({3})] == (3, 3)
        assert got[frozenset({4})] == (3, 3)
        assert got[frozenset({3, 4})] == (3, 3)
        assert got[frozenset({0, 3, 4})] == (2, 3)
        assert Fraction(*got[frozenset({3, 4})]) == 1
        assert Fraction(*got[frozenset({0, 3, 4})]) == Fraction(2, 3)

    def test_minsup_one_keeps_universal_itemsets_only(self):
        t = table(EXAMPLE_ROWS)
        got = {fi.items for fi in apriori(t, 1.0)}
        assert got == {frozenset({3}), frozenset({4}), frozenset({3, 4})}

    def test_single_row_all_subsets_frequent(self):
        t = table([{2, 7}])
        got = as_support_map(apriori(t, 0.2))
        assert set(got) == {frozenset({2}), frozenset({7}), frozenset({2, 7})}
        assert all(c == (1, 1) for c in got.values())

    def test_empty_table(self):
        assert apriori(table([]), 0.2) == []

    def test_downward_closure(self):
        rng = random.Random(9)
        rows = [frozenset(i for i in range(10) if rng.random() < 0.3)
                for _ in range(50)]
        result = apriori(table([r for r in rows if r]), 0.1)
        frequent = {fi.items for fi in result}
        for fi in result:
            for k in range(1, len(fi.items)):
                for sub in combinations(fi.items, k):
                    assert frozenset(sub) in frequent

    def test_supports_match_direct_row_scan(self):
        rng = random.Random(10)
        rows = [frozenset(i for i in range(8) if rng.random() < 0.4)
                for _ in range(60)]
        rows = [r for r in rows if r]
        t = table(rows)
        for fi in apriori(t, 0.2):
            assert fi.count == sum(1 for r in rows if fi.items <= r)
            assert fi.n_rows == len(rows)

    def test_matches_enumeration_oracle_on_random_tables(self):
        rng = random.Random(11)
        for trial in range(40):
            m = rng.randrange(1, 12)
            n = rng.randrange(1, 60)
            p = rng.uniform(0.05, 0.45)
            rows = [frozenset(i for i in range(m) if rng.random() < p)
                    for _ in range(n)]
            rows = [r for r in rows if r]
            if not rows:
                continue
            minsup = rng.choice([0.1, 0.2, 0.5])
            got = {fi.items: fi.count for fi in apriori(table(rows), minsup)}
            assert got == brute_force_itemsets(rows, minsup), f"trial {trial}"

    def test_invalid_minsup_rejected(self):
        with pytest.raises(ValueError):
            apriori(table([{1}]), 0.0)


# region ids far above 2^31, drawn sparse
LARGE_IDS = st.integers(2**31 + 1, 2**62)


class TestBitmapApriori:
    """The bitmap miner against the row-set miner it replaced and against full
    enumeration, at and around the 64-row word boundary."""

    @staticmethod
    def planted_rows(n_rows, ids, minsup, core, core_rows, seed):
        """``n_rows`` region sets over ``ids``: the first ``core`` ids together
        in ``core_rows`` rows, the next id in exactly min_count(n_rows, minsup)
        rows, and each other id in each row with one drawn probability."""
        rng = random.Random(seed)
        rows = [set() for _ in range(n_rows)]
        for r in rng.sample(range(n_rows), min(core_rows, n_rows)):
            rows[r].update(ids[:core])
        rest = ids[core:]
        if rest:
            for r in rng.sample(range(n_rows), min_count(n_rows, minsup)):
                rows[r].add(rest[0])
        for region in rest[1:]:
            p = rng.random()
            for row in rows:
                if rng.random() < p:
                    row.add(region)
        return [frozenset(r) for r in rows]

    @staticmethod
    def visits_table(rows, seed):
        """The rows as an hour table whose visits repeat some regions, in
        shuffled order within each row."""
        rng = random.Random(seed)
        row, region = [], []
        for r, regions in enumerate(rows):
            visits = [x for x in sorted(regions) for _ in range(rng.choice((1, 1, 2)))]
            rng.shuffle(visits)
            row += [r] * len(visits)
            region += visits
        return TransactionTable(hour_key=(MONDAY, 10), n_rows=len(rows),
                                row=np.array(row, dtype=np.int64),
                                region=np.array(region, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(n_rows=st.sampled_from([1, 63, 64, 65, 128]) | st.integers(1, 200),
           ids=st.lists(st.integers(0, 30) | LARGE_IDS, min_size=1, max_size=9, unique=True),
           minsup=st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.03]),
           core=st.integers(0, 6), core_rows=st.integers(0, 200),
           seed=st.integers(0, 2**32 - 1))
    @example(n_rows=128, ids=[2**40 + 7 * i for i in range(8)], minsup=0.25, core=5,
             core_rows=32, seed=1)
    @example(n_rows=64, ids=[2**33, 5, 2**62, 17, 3], minsup=1.0, core=4, core_rows=64,
             seed=2)
    @example(n_rows=65, ids=[9, 2**31 + 1, 4, 2**50, 6, 7], minsup=0.2, core=4,
             core_rows=13, seed=3)
    def test_equals_row_set_miner_and_enumeration(self, n_rows, ids, minsup, core,
                                                  core_rows, seed):
        rows = self.planted_rows(n_rows, ids, minsup, core, core_rows, seed)
        got = apriori(self.visits_table(rows, seed), minsup)
        assert got == reference_apriori(rows, minsup)
        assert {fi.items: fi.count for fi in got} == brute_force_itemsets(rows, minsup)
        # a pruned candidate is infrequent anyway, so the prune shows only in C_k
        levels = {}
        for fi in got:
            levels.setdefault(len(fi.items), []).append(tuple(sorted(fi.items)))
        for level in levels.values():
            assert functions._candidates(level) == reference_candidates(level)


class TestTimeWindows:
    def test_default_windows_disjoint_and_shaped(self):
        w = TimeWindows.default()
        assert (0, 8) in w.work and (4, 16) in w.work
        assert (0, 17) in w.entertainment and (5, 8) in w.entertainment
        assert (6, 21) in w.entertainment
        assert (2, 23) in w.home and (6, 3) in w.home
        assert (5, 22) not in w.entertainment  # weekend window ends at 22:00
        assert w.window_of((5, 22)) is None

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            TimeWindows(work=frozenset({(0, 9)}),
                        entertainment=frozenset({(0, 9)}),
                        home=frozenset())


def itemset(items, count, n):
    return FrequentItemset(items=frozenset(items), count=count, n_rows=n)


class TestClassifyRegions:
    def test_work_only_region_is_workplace(self):
        hourly = {(MONDAY, h): [itemset({5}, 3, 4)] for h in range(8, 17)}
        (rf,) = classify_regions(hourly)
        assert rf.region_id == 5 and rf.label == WORKPLACE

    def test_never_frequent_region_is_other(self):
        hourly = {(MONDAY, 9): [itemset({1}, 2, 4)]}
        out = classify_regions(hourly, all_regions=[1, 2])
        labels = {rf.region_id: rf.label for rf in out}
        assert labels[2] == OTHER

    def test_tie_between_windows_is_other(self):
        hourly = {(MONDAY, 9): [itemset({3}, 1, 2)],     # work slot, support 0.5
                  (MONDAY, 18): [itemset({3}, 1, 2)]}    # entertainment, support 0.5
        (rf,) = classify_regions(hourly)
        assert rf.label == OTHER

    def test_max_support_per_hour_not_sum(self):
        hourly = {(MONDAY, 9): [itemset({4}, 1, 2), itemset({4, 5}, 1, 2)]}
        out = {rf.region_id: rf for rf in classify_regions(hourly)}
        assert out[4].window_scores["work"] == pytest.approx(0.5)

    def test_hour_order_invariance(self):
        hourly = {(MONDAY, h): [itemset({1}, 1, 2)] for h in range(8, 17)}
        hourly[(MONDAY, 20)] = [itemset({1}, 1, 1)]
        forward = classify_regions(dict(sorted(hourly.items())))
        backward = classify_regions(dict(sorted(hourly.items(), reverse=True)))
        assert forward == backward

    def test_planted_city_recovered(self):
        events = planted_city_events(seed=3)
        tables = hourly_transactions(events)
        hourly = {k: apriori(t, 0.2) for k, t in tables.items()}
        labels = {rf.region_id: rf.label for rf in classify_regions(hourly)}
        for region, expected in PLANTED_LABELS.items():
            assert labels[region] == expected

    def test_labels_cover_expected_values(self):
        assert {WORKPLACE, ENTERTAINMENT, RESIDENTIAL, OTHER} == {
            "workplace", "entertainment", "residential", "other"}

    @pytest.mark.parametrize("line, message", [
        ("5", "expected 5 label fields, got 1"),
        ("5;other;0.0;0.0", "expected 5 label fields, got 4"),
        ("5;other;0.0;0.0;0.0;0.0", "expected 5 label fields, got 6"),
        ("5;bogus;0.0;0.0;0.0", "unknown label 'bogus'; expected one of "
                                "('workplace', 'entertainment', 'residential', 'other')"),
    ])
    def test_malformed_label_line_is_refused(self, line, message):
        text = "3;workplace;1.0;0.0;0.0\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_labels(io.StringIO(text, newline="\n"))

    @pytest.mark.parametrize("line, message", [
        ("5;other;0.0;x;0.0", "could not convert string to float: 'x'"),
        ("5;other;0.0;0.0;", "could not convert string to float: ''"),
        ("x;bogus;0.0;0.0;0.0", "invalid literal for int() with base 10: 'x'"),
    ], ids=["score", "empty_score", "region_id_before_label"])
    def test_every_field_is_checked_in_order(self, line, message):
        text = "3;workplace;1.0;0.0;0.0\n" + line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_labels(io.StringIO(text, newline="\n"))

    def test_many_chunks(self):
        rng = random.Random(9)
        functions = [RegionFunction(region, rng.choice(LABELS),
                                    {w: rng.random() * 50 for w in ("work", "entertainment",
                                                                    "home")})
                     for region in range(30_000)]  # about 2 MB: several reads of about 1 MB
        buf = io.StringIO(newline="\n")
        write_labels(functions, buf)
        text = buf.getvalue()
        assert len(text) > 1 << 21
        labels = load_labels(io.StringIO(text, newline="\n"))
        assert labels == {rf.region_id: rf.label for rf in functions}
        with pytest.raises(ValueError, match="^expected 5 label fields, got 4$"):
            load_labels(io.StringIO(text + "1;other;0.0;0.0\n", newline="\n"))
