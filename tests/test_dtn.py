import random
import re
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityregions.dtn import (HISTORY, ORACLE, RANDOM, Encounters, SelectionError, SimOutcome,
                             SimScenario, encounters, hot_regions_for_window, in_window,
                             propagate, run_scenario, select_history,
                             select_oracle, select_random, summarize)
from cityregions.functions import TimeWindows
from cityregions.regions import DEPARTURE, VISIT
from cityregions.synth import SYNTH_T0, persistent_dtn_trace

from .oracles import (EncounterEvent, VisitEvent, encounter_table, encounters_of,
                      event_table, events_of, reference_encounters, reference_in_window,
                      reference_hot_regions_for_window, reference_propagate,
                      reference_select_oracle)


def ev(taxi, region, t, kind=VISIT):
    return VisitEvent(str(taxi), region, float(t), kind)


class TestEncounters:
    def test_two_taxis_same_region_bin(self):
        out = encounters(event_table([ev("a", 7, 100), ev("b", 7, 250)]), 300)
        assert len(out) == 1
        assert encounters_of(out) == [EncounterEvent("a", "b", 7, 0.0)]

    def test_three_taxis_pairwise(self):
        out = encounters(event_table([ev(t, 3, 50 + i) for i, t in enumerate("abc")]), 300)
        assert len(out) == 3
        assert {(e.taxi_a, e.taxi_b) for e in encounters_of(out)} == \
            {("a", "b"), ("a", "c"), ("b", "c")}

    def test_same_taxis_different_regions_no_encounter(self):
        assert encounters_of(encounters(event_table([ev("a", 1, 100), ev("b", 2, 150)]),
                                        300)) == []

    def test_bin_boundary_separates(self):
        assert encounters_of(encounters(event_table([ev("a", 1, 299), ev("b", 1, 300)]),
                                        300)) == []

    def test_duplicate_visits_one_encounter(self):
        out = encounters(event_table([ev("a", 1, 10), ev("a", 1, 20), ev("b", 1, 30)]), 300)
        assert len(out) == 1

    def test_deterministic_order(self):
        events = [ev("b", 2, 700), ev("a", 2, 650), ev("b", 1, 100), ev("a", 1, 40)]
        out = encounters(event_table(events), 300)
        keys = [(e.region_id, e.bin_start, e.taxi_a, e.taxi_b) for e in encounters_of(out)]
        assert keys == sorted(keys)


class TestSelection:
    def test_oracle_ranks_by_hot_visits(self):
        events = [ev("A", 1, i * 10) for i in range(5)] + \
                 [ev("B", 1, 1000 + i * 10) for i in range(3)]
        assert select_oracle(event_table(events), {1}, 1) == {"A"}

    def test_all_zero_ties_break_by_id(self):
        events = [ev(t, 5, i * 10) for i, t in enumerate("cab")]
        assert select_oracle(event_table(events), {99}, 2) == {"a", "b"}

    def test_too_few_active_taxis(self):
        with pytest.raises(SelectionError, match="active"):
            select_oracle(event_table([ev("a", 1, 0)]), {1}, 2)

    def test_exclusion_removes_candidates(self):
        events = [ev("A", 1, 0), ev("B", 1, 10)]
        assert select_oracle(event_table(events), {1}, 1, exclude={"A"}) == {"B"}

    def test_history_equals_oracle_on_identical_windows(self):
        events = event_table([ev("A", 1, i) for i in range(7)] + [ev("B", 1, 100)])
        assert select_history(events, {1}, 1) == select_oracle(events, {1}, 1)

    def test_history_can_pick_taxi_absent_from_eval(self):
        history = event_table([ev("ghost", 1, i) for i in range(5)])
        assert select_history(history, {1}, 1) == {"ghost"}

    def test_planted_dominators_selected(self):
        rng = random.Random(12)
        events = []
        for i in range(10):  # dominators: many hot visits
            events += [ev(f"hot{i}", 0, 1000 * i + j) for j in range(20)]
        for i in range(30):  # background: one cold visit each
            events.append(ev(f"bg{i:02d}", 5, 500 + i))
        got = select_oracle(event_table(events), {0}, 10)
        assert got == {f"hot{i}" for i in range(10)}


class TestSelectRandom:
    def test_same_seed_same_set(self):
        pop = [f"t{i}" for i in range(50)]
        assert select_random(pop, 10, 42) == select_random(pop, 10, 42)

    def test_k_equals_population(self):
        pop = {"a", "b", "c"}
        assert select_random(pop, 3, 0) == pop

    def test_too_small_population(self):
        with pytest.raises(SelectionError):
            select_random(["a"], 2, 0)

    def test_uniform_frequencies(self):
        pop = [f"t{i}" for i in range(10)]
        k, trials = 3, 10000
        counts = Counter()
        for seed in range(trials):
            counts.update(select_random(pop, k, seed))
        expected = k / len(pop)
        se = (expected * (1 - expected) / trials) ** 0.5
        for t in pop:
            assert abs(counts[t] / trials - expected) <= 3 * se


class TestPropagate:
    def enc(self, a, b, region=1, bin_start=0.0):
        return EncounterEvent(a, b, region, bin_start)

    def test_no_subscriber_contact_undelivered(self):
        out = propagate({"p"}, {"s"}, encounter_table([self.enc("p", "x"), self.enc("x", "s")]))
        assert out.delivered == 0
        assert out.delivery_times["p"] is None

    def test_first_bin_delivery_records_time(self):
        out = propagate({"p"}, {"s"}, encounter_table([self.enc("p", "s", bin_start=600.0)]))
        assert out.delivered == 1 and out.delivery_ratio == 1.0
        assert out.delivery_times["p"] == 600.0

    def test_first_delivery_only(self):
        encs = [self.enc("p", "s", bin_start=0.0), self.enc("p", "s2", bin_start=300.0)]
        out = propagate({"p"}, {"s", "s2"}, encounter_table(encs))
        assert out.delivered == 1
        assert out.delivery_times["p"] == 0.0

    def test_complete_encounters_saturate(self):
        taxis = [f"t{i}" for i in range(6)]
        encs = [self.enc(a, b) for i, a in enumerate(taxis) for b in taxis[i + 1:]]
        out = propagate(set(taxis[:3]), set(taxis[3:]), encounter_table(encs))
        assert out.delivery_ratio == 1.0

    def test_deterministic(self):
        encs = encounter_table([self.enc("p", "s"), self.enc("q", "s", bin_start=300.0)])
        a = propagate({"p", "q"}, {"s"}, encs)
        b = propagate({"p", "q"}, {"s"}, encs)
        assert a == b

    def test_monotone_under_encounter_removal(self):
        rng = random.Random(13)
        taxis = [f"t{i}" for i in range(12)]
        full = []
        for b in range(10):
            present = rng.sample(taxis, rng.randrange(2, 6))
            full += [self.enc(a, c, bin_start=b * 300.0)
                     for i, a in enumerate(sorted(present))
                     for c in sorted(present)[i + 1:]]
        pubs, subs = set(taxis[:4]), set(taxis[8:])
        ratio_full = propagate(pubs, subs, encounter_table(full)).delivery_ratio
        for _ in range(20):
            subset = [e for e in full if rng.random() < 0.6]
            assert propagate(pubs, subs, encounter_table(subset)).delivery_ratio <= ratio_full

    def test_relabeling_invariance(self):
        relabel = {"p": "zz", "q": "yy", "s": "xx", "w": "vv"}
        encs = [self.enc("p", "s"), self.enc("q", "w", bin_start=300.0),
                self.enc("q", "s", bin_start=600.0)]
        base = propagate({"p", "q"}, {"s"}, encounter_table(encs))
        mapped_encs = [self.enc(relabel[e.taxi_a], relabel[e.taxi_b],
                                bin_start=e.bin_start) for e in encs]
        mapped = propagate({"zz", "yy"}, {"xx"}, encounter_table(mapped_encs))
        assert mapped.delivered == base.delivered
        assert mapped.delivery_ratio == base.delivery_ratio
        assert {relabel[k]: v for k, v in base.delivery_times.items()} == \
            mapped.delivery_times


# the first instants of years 1 and 10000 (proleptic Gregorian, UTC)
_YEAR_1 = -62135596800.0
_YEAR_10000 = 253402300800.0


class TestHotRegions:
    LABELS = {0: "workplace", 1: "entertainment", 2: "residential", 3: "other"}

    def window(self, day_offset, hour):
        t0 = SYNTH_T0 + day_offset * 86400 + hour * 3600
        return (float(t0), float(t0 + 3600))

    def test_weekday_afternoon_is_work(self):
        # Tuesday 15:00 falls in the work window
        hot = hot_regions_for_window(self.window(1, 15), self.LABELS)
        assert hot == {0}

    def test_weekend_afternoon_is_entertainment(self):
        # Sunday 15:00 falls in the weekend entertainment window
        hot = hot_regions_for_window(self.window(6, 15), self.LABELS)
        assert hot == {1}

    def test_night_is_residential(self):
        hot = hot_regions_for_window(self.window(2, 23), self.LABELS)
        assert hot == {2}

    def test_unaligned_window_keeps_its_last_hour(self):
        # Mon 2008-02-04 16:30-17:10 UTC touches work (16:00) and entertainment (17:00)
        start = datetime(2008, 2, 4, 16, 30, tzinfo=timezone.utc).timestamp()
        hot = hot_regions_for_window((start, start + 40 * 60), self.LABELS)
        assert hot == {0, 1}

    def test_window_ending_on_the_hour_excludes_that_hour(self):
        start = datetime(2008, 2, 4, 16, 30, tzinfo=timezone.utc).timestamp()
        assert hot_regions_for_window((start, start + 30 * 60), self.LABELS) == {0}

    def test_hours_follow_the_local_offset(self):
        # 08:30-09:10 UTC is 16:30-17:10 in Beijing (UTC+8)
        start = datetime(2008, 2, 4, 8, 30, tzinfo=timezone.utc).timestamp()
        hot = hot_regions_for_window((start, start + 40 * 60), self.LABELS,
                                     utc_offset_hours=8.0)
        assert hot == {0, 1}

    def test_empty_window_has_no_hot_regions(self):
        start = datetime(2008, 2, 4, 16, 30, tzinfo=timezone.utc).timestamp()
        assert hot_regions_for_window((start, start), self.LABELS) == frozenset()

    def test_a_long_window_walks_one_week_of_hours(self):
        slots = []

        class Counting(TimeWindows):
            def window_of(self, slot):
                slots.append(slot)
                return super().window_of(slot)

        default = TimeWindows.default()
        windows = Counting(default.work, default.entertainment, default.home)
        start = float(SYNTH_T0)
        hot = hot_regions_for_window((start, start + 1e5 * 3600), self.LABELS, windows)
        assert hot == {0, 1, 2}
        assert len(slots) <= 168 and len(set(slots)) == len(slots)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(0.0, 14 * 86400.0),  # from SYNTH_T0 on
                     st.floats(-SYNTH_T0 - 30 * 86400.0, -SYNTH_T0),  # before the epoch
                     # local years 1 to 9999, the window's 14 days and 2 hours too
                     st.floats(_YEAR_1 + 86400.0 - SYNTH_T0,
                               _YEAR_10000 - 16 * 86400.0 - SYNTH_T0)),
           st.floats(0.0, 14 * 86400.0 + 7200.0),
           st.sampled_from([0.0, 8.0, -5.5, 5.75, 1 / 3]),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 23)), max_size=5, unique=True))
    def test_equals_a_walk_over_every_hour(self, start_s, length_s, offset, picked):
        # each label holds at most two slots, so a walk cut short would miss one
        windows = TimeWindows(frozenset(picked[:2]), frozenset(picked[2:4]),
                              frozenset(picked[4:]))
        window = (SYNTH_T0 + start_s, SYNTH_T0 + start_s + length_s)
        assert hot_regions_for_window(window, self.LABELS, windows, offset) == \
            reference_hot_regions_for_window(window, self.LABELS, windows, offset)

    def test_the_last_hour_datetime_holds(self):
        # 9999-12-31 is a Friday: 20:00 to 22:00 entertainment, 23:00 home
        end = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()
        assert hot_regions_for_window((end - 3 * 3600, end), self.LABELS) == {1, 2}


class TestRunScenario:
    def test_shuffled_history_indistinguishable_from_random(self):
        """Without day persistence the history ranking carries no signal, so
        its mean delivery ratio must sit within Monte-Carlo noise of random."""
        import statistics

        diffs = []
        for seed in range(100):
            # high wanderer activity keeps every taxi active in both windows,
            # so the only difference between the policies is the ranking itself
            trace = persistent_dtn_trace(seed=seed, day_persistent=False,
                                         wanderer_cold_rate=0.30)
            subs = frozenset(select_random(trace.population, 100, 9000 + seed))
            ratios = {}
            for policy in (HISTORY, RANDOM):
                scenario = SimScenario(trace.eval_window, trace.hot_regions, subs,
                                       100, policy, trace.history_window,
                                       rng_seed=5000 + seed)
                ratios[policy] = run_scenario(trace.events, scenario).delivery_ratio
            diffs.append(ratios[HISTORY] - ratios[RANDOM])
        mean_diff = statistics.fmean(diffs)
        se = statistics.stdev(diffs) / len(diffs) ** 0.5
        assert abs(mean_diff) <= 3 * se + 1e-12, (mean_diff, se)

    def test_policy_ordering_on_persistent_trace(self):
        trace = persistent_dtn_trace(seed=21)
        ratios = {}
        for policy in (ORACLE, HISTORY, RANDOM):
            scenario = SimScenario(
                eval_window=trace.eval_window,
                hot_regions=trace.hot_regions,
                subscribers=frozenset(select_random(trace.population, 100, 555)),
                publisher_count=100,
                policy=policy,
                history_window=trace.history_window,
                rng_seed=777)
            ratios[policy] = run_scenario(trace.events, scenario).delivery_ratio
        assert ratios[ORACLE] >= ratios[HISTORY] > ratios[RANDOM]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_scenario(event_table([]), SimScenario((0.0, 1.0), frozenset(), frozenset(),
                                                      1, "flood"))

    def test_summarize_improvement(self):
        trace = persistent_dtn_trace(seed=22)
        rows = []
        for seed in range(3):
            subs = frozenset(select_random(trace.population, 100, 1000 + seed))
            for policy in (HISTORY, RANDOM):
                scenario = SimScenario(trace.eval_window, trace.hot_regions, subs,
                                       100, policy, trace.history_window,
                                       rng_seed=2000 + seed)
                rows.append((policy, seed, run_scenario(trace.events, scenario)))
        summary = summarize(rows)
        assert "mean_history" in summary and "mean_random" in summary
        assert summary["history_vs_random_improvement"] > 0

    def test_in_window_slices_half_open(self):
        events = event_table([ev("a", 1, t) for t in (99, 100, 150, 200)])
        got = in_window(events, (100.0, 200.0))
        assert got.t.tolist() == [100.0, 150.0]


# visit events on a few taxis and regions, with times on and near bin and window edges
EDGE_TIMES = [0.0, 100.0, 299.99999999999994, 300.0, 600.0, 899.0, float("nan")]
EVENTS = st.lists(st.builds(VisitEvent, st.sampled_from(["a", "b", "c", "d", "b a"]),
                            st.integers(0, 3),
                            st.one_of(st.sampled_from(EDGE_TIMES), st.floats(0.0, 900.0)),
                            st.sampled_from([VISIT, DEPARTURE])), max_size=40)
# "e" never visits: a publisher or subscriber absent from the window
CARRIERS = st.sampled_from(["a", "b", "c", "d", "b a", "e"])


class TestColumnKernels:
    """in_window, encounters and the oracle ranking against the per-event code."""

    @settings(max_examples=200, deadline=None)
    @given(EVENTS, st.sampled_from(EDGE_TIMES + [float("-inf")]),
           st.sampled_from(EDGE_TIMES + [float("inf")]))
    def test_in_window_edges(self, events, start, end):
        expected = reference_in_window(events, (start, end))
        assert events_of(in_window(event_table(events), (start, end))) == expected

    @settings(max_examples=200, deadline=None)
    @given(EVENTS, st.sampled_from([300.0, 0.1, 7.0]))
    def test_encounters_equal_per_event_code(self, events, bin_width):
        events = [e for e in events if e.timestamp == e.timestamp]
        table = encounters(event_table(events), bin_width)
        expected = reference_encounters(events, bin_width)
        assert encounters_of(table) == expected
        assert len(table) == len(expected)

    @settings(max_examples=300, deadline=None)
    @given(EVENTS, st.sampled_from([300.0, 0.1, 7.0]), st.sets(CARRIERS), st.sets(CARRIERS),
           st.randoms(use_true_random=False))
    def test_propagate_equals_the_carrying_loop_in_any_row_order(self, events, bin_width,
                                                                 pubs, subs, rnd):
        events = [e for e in events if e.timestamp == e.timestamp]
        in_time_order = sorted(reference_encounters(events, bin_width),
                               key=lambda e: (e.bin_start, e.region_id, e.taxi_a, e.taxi_b))
        expected = reference_propagate(pubs, subs, in_time_order)
        table = encounters(event_table(events), bin_width)
        assert propagate(pubs, subs, table) == expected
        rows = np.array(rnd.sample(range(len(table)), len(table)), dtype=np.int64)
        shuffled = Encounters(table.taxi_ids, table.a[rows], table.b[rows],
                              table.region[rows], table.bin_start[rows])
        assert propagate(pubs, subs, shuffled) == expected

    @pytest.mark.parametrize("width", [0.0, -300.0, float("inf"), float("nan")])
    def test_encounters_refuse_a_bin_width_that_is_not_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="^bin_width must be positive and finite$"):
            encounters(event_table([ev("a", 1, 10), ev("b", 1, 20)]), width)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_encounters_refuse_a_bad_timestamp_as_before(self, bad):
        events = [ev("a", 1, 10), ev("b", 1, bad), ev("c", 1, float("nan"))]
        with pytest.raises(Exception) as expected:
            reference_encounters(events, 300.0)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            encounters(event_table(events), 300.0)

    @settings(max_examples=200, deadline=None)
    @given(EVENTS, st.sets(st.integers(0, 3)), st.integers(1, 4),
           st.sets(st.sampled_from(["a", "b", "c", "d", "b a"]), max_size=2))
    def test_oracle_ranking_equals_per_event_code(self, events, hot, k, exclude):
        try:
            expected = reference_select_oracle(events, hot, k, exclude)
        except SelectionError:
            with pytest.raises(SelectionError):
                select_oracle(event_table(events), hot, k, exclude)
        else:
            assert select_oracle(event_table(events), hot, k, exclude) == expected


def test_summary_means_sum_left_to_right():
    # sum() is compensated from Python 3.12 on and would give a mean of 0.1 here
    rows = [(RANDOM, run, SimOutcome(1, 10, 0.1, {})) for run in range(10)]
    assert summarize(rows)["mean_random"] == 0.9999999999999999 / 10
