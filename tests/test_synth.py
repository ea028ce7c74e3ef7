"""The seeded generators' output, pinned byte for byte: the planted city and
DTN events as events.txt writes them, and the bundled fixture trace."""

import hashlib
import io
from pathlib import Path

from cityregions.fixtures import write_fixture
from cityregions.regions import EventTable, write_events
from cityregions.synth import persistent_dtn_trace, planted_city_events


def events_sha256(events):
    buf = io.StringIO(newline="\n")
    write_events(events, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestGeneratorPins:
    # recorded from the per-object generators, before they built columns
    PLANTED_CITY_SEED_3 = "5689df5a5f724531f0900ac074f4f86d79d1a304dc12e82aa1c1b6977a6cfb94"
    DTN_TRACE_SEED_21 = "f38125992c2d28e3bd62665d874eb3b98168431361db29ac0dbe9400ac7de31f"
    FIXTURE_TRACE = "40951765e7c2ec56e670f919368686a423005e99827a918c234f87df46817977"

    def test_planted_city_events(self):
        events = planted_city_events(seed=3)
        assert isinstance(events, EventTable) and len(events) == 5751
        assert events.taxi_ids == tuple(events.present_taxi_ids())
        assert events_sha256(events) == self.PLANTED_CITY_SEED_3

    def test_persistent_dtn_trace(self):
        trace = persistent_dtn_trace(seed=21)
        assert isinstance(trace.events, EventTable) and len(trace.events) == 1203
        assert trace.population == frozenset(trace.events.taxi_ids)
        assert events_sha256(trace.events) == self.DTN_TRACE_SEED_21

    def test_fixture_trace_file(self, tmp_path):
        trace_path, _ = write_fixture(str(tmp_path))
        data = Path(trace_path).read_bytes()
        assert data.count(b"\n") == 1080
        assert hashlib.sha256(data).hexdigest() == self.FIXTURE_TRACE
