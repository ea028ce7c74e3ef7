import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from cityregions.cli import main
from cityregions.fixtures import fixture_config, three_taxi_trace, write_fixture
from cityregions.pipeline import (_ARTIFACTS, _PARSED_TYPES, PARSED_DIR, ConfigError,
                                  MissingArtifactError, STAGES, _load_parsed, _parsed_key,
                                  _save_parsed, _to_columns, config_hash, derive_seed,
                                  file_hash, load_config, parse_config, run)

from .oracles import points_of


# the file names of a .parsed/ holding every entry
PARSED_ENTRIES = [name + ".columns" for name in sorted(_PARSED_TYPES)]


def hash_dir(path):
    """sha256 of every artifact file in path; ``parsed_bytes`` reads .parsed/."""
    return {name: file_hash(os.path.join(path, name))
            for name in sorted(os.listdir(path)) if name != PARSED_DIR}


def parsed_bytes(out_dir):
    """Every file under out_dir/.parsed/, by its path below .parsed/."""
    root = Path(out_dir) / PARSED_DIR
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixture")
    write_fixture(str(d))
    return d


@pytest.fixture(scope="module")
def completed_run(fixture_dir):
    cfg = load_config(str(fixture_dir / "config.json"))
    run(cfg, "all")
    return cfg


class TestRunAll:
    def test_manifest_lists_all_six_stages(self, completed_run):
        with open(os.path.join(completed_run.out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert sorted(manifest["stages"]) == sorted(STAGES)
        assert manifest["config_hash"] == config_hash(completed_run)

    def test_ingest_summary_accounts_for_all_lines(self, completed_run):
        with open(os.path.join(completed_run.out_dir, "ingest_summary.txt")) as fh:
            summary = dict(line.strip().split(";") for line in fh)
        assert (int(summary["accepted"]) + int(summary["deduplicated"])
                + int(summary["rejected"])) == int(summary["input_lines"])
        assert int(summary["points_written"]) == (
            int(summary["accepted"]) - int(summary["clipped_out_of_bounds"]))

    def test_expected_artifacts_exist(self, completed_run):
        for name in ("trace.txt", "rejects.txt", "ingest_summary.txt",
                     "trips.txt", "stops.txt",
                     "tree.txt", "events.txt", "fits_trip_length.txt",
                     "ccdf_stay_time.txt", "labels.txt", "itemsets.txt",
                     "region_labels_plot.txt", "dtn_results.txt",
                     "dtn_summary.txt"):
            assert os.path.exists(os.path.join(completed_run.out_dir, name)), name

    def test_dtn_rows_cover_policies_and_runs(self, completed_run):
        with open(os.path.join(completed_run.out_dir, "dtn_results.txt")) as fh:
            rows = [line.split(";") for line in fh.read().splitlines()]
        assert len(rows) == 6  # 2 runs x 3 policies
        assert {r[0].split(":")[1] for r in rows} == {"oracle", "history", "random"}

    def test_fixture_produces_nontrivial_mobility(self, completed_run):
        with open(os.path.join(completed_run.out_dir, "trips.txt")) as fh:
            trips = fh.read().splitlines()
        assert len(trips) == 24  # 3 taxis x 2 days x 4 trips
        with open(os.path.join(completed_run.out_dir, "dtn_results.txt")) as fh:
            delivered = [int(line.split(";")[2]) for line in fh]
        assert any(d > 0 for d in delivered)


class TestDeterminism:
    def test_rerun_stage_is_byte_identical(self, fixture_dir, completed_run):
        before = hash_dir(completed_run.out_dir)
        run(completed_run, "stats")
        assert hash_dir(completed_run.out_dir) == before
        parsed = parsed_bytes(completed_run.out_dir)
        assert set(parsed) >= {"stops.txt.columns", "trips.txt.columns"}
        run(completed_run, "stats")  # loads both from .parsed/ this time
        assert hash_dir(completed_run.out_dir) == before
        assert parsed_bytes(completed_run.out_dir) == parsed

    def test_rerun_all_is_byte_identical(self, fixture_dir, completed_run):
        before = hash_dir(completed_run.out_dir)
        parsed = parsed_bytes(completed_run.out_dir)
        run(completed_run, "all")
        assert hash_dir(completed_run.out_dir) == before
        assert parsed_bytes(completed_run.out_dir) == parsed

    def test_later_stages_do_not_mutate_predecessors(self, completed_run):
        trace_before = hash_dir(completed_run.out_dir)["trace.txt"]
        run(completed_run, "dtn")
        assert hash_dir(completed_run.out_dir)["trace.txt"] == trace_before


def _artifact_bytes(out_dir):
    """Every artifact file in out_dir; ``parsed_bytes`` reads .parsed/."""
    return {name: (Path(out_dir) / name).read_bytes() for name in sorted(os.listdir(out_dir))
            if name != PARSED_DIR}


def _all_then_stages(cfg):
    """Artifacts of run(cfg, "all"), after checking six single-stage runs
    into the same directory write the same bytes, manifest included, and
    that what they keep in .parsed/ (``all`` keeps nothing there) loads to
    what each reader returns, bit for bit."""
    run(cfg, "all")
    whole = _artifact_bytes(cfg.out_dir)
    assert not os.path.exists(os.path.join(cfg.out_dir, PARSED_DIR))
    shutil.rmtree(cfg.out_dir)
    for stage in STAGES:
        run(cfg, stage)
    assert _artifact_bytes(cfg.out_dir) == whole
    parsed = os.path.join(cfg.out_dir, PARSED_DIR)
    assert sorted(os.listdir(parsed)) == PARSED_ENTRIES
    for name in _PARSED_TYPES:
        path = os.path.join(cfg.out_dir, name)
        value = _load_parsed(os.path.join(parsed, name + ".columns"),
                             _parsed_key(file_hash(path)), _PARSED_TYPES[name])
        assert _value_bits(value) == _value_bits(_ARTIFACTS[name][1](path)), name
    return whole


def _value_bits(value):
    """A loader's value with each array as its dtype and bytes, comparable by ==."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_value_bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [_value_bits(v) for v in value]
    return value


def _dirty_datasets(directory):
    """The fixture trace as two T-Drive files with dirt, plus one cabspotting
    file with a configured id."""
    tz = timezone(timedelta(hours=8))

    def line(p, stamp="{:%Y-%m-%d %H:%M:%S}", lon_lat=None):
        local = stamp.format(datetime.fromtimestamp(p.timestamp, tz))
        return f"{p.taxi_id},{local},{lon_lat or f'{p.lon!r},{p.lat!r}'}"

    points = points_of(three_taxi_trace())
    first = [line(p) for p in points if p.taxi_id != "3"]
    second = [line(p) for p in points if p.taxi_id == "3"]
    first[5] = line(points[5], "{0.year}-{0.month}-{0.day} {0.hour}:{0.minute}:{0.second}")
    first[9:9] = [first[8], "", "2,2008-02-0", "1,2008-02-05 03:00:00,0,0"]
    second[3:3] = [line(points[20], lon_lat="116.31,39.91")]  # taxi 1's fix, moved
    a, b, c = (Path(directory) / name for name in ("a.txt", "b.txt", "cab.txt"))
    a.write_text("\n".join(first) + "\n", encoding="utf-8", newline="")
    b.write_text("\r\n".join(second) + "\r\n", encoding="utf-8", newline="")
    start = int(points[0].timestamp)  # a 10-min dwell, a drive, a 10-min dwell
    c.write_text("".join(f"39.95 {116.40 + 0.05 * (i > 12)!r} 0 {start + 60 * i}\n"
                         for i in range(24)))
    return [{"path": str(a), "format": "beijing"}, {"path": str(b), "format": "beijing"},
            {"path": str(c), "format": "sanfrancisco", "taxi_id": "9"}]


class TestAllEqualsStages:
    """``all`` hands the trace on in memory; single stages read trace.txt."""

    # sha256 of the fixture's artifacts: the first five as the per-line parser
    # wrote them, the rest as recorded before the duplicate tree walk, table
    # builder and carrier ranking were merged, fits_* as the search wrote them
    # through scipy before its numpy port. manifest.json (it holds input
    # paths) is left out.
    FIXTURE_SHA256 = {
        "trace.txt": "40951765e7c2ec56e670f919368686a423005e99827a918c234f87df46817977",
        "trips.txt": "586344d7ad8e44727fe686ff078a838b317c02785823dcd1c41a47740d4ba6ee",
        "stops.txt": "d994d77319fd21b1ab3ef4c4f92275d5086ea5fe4ce7e2ba2d4839c1dffdda61",
        "tree.txt": "adbbc45e257f09c0158171c78f59459834d3fb39d75b7ddb836ba7cb910844f4",
        "events.txt": "ab70ef238f93960991aa920c39400784e0f5ccbca4f98d923c67349abc67bece",
        "labels.txt": "8901404d25835cc5f8afbd5bf004324ea51a0d83298f0016c4b8bdd907938cdd",
        "itemsets.txt": "e7aeee57158a3e9a739010da29afe27d43bb4e19dcc1b19c89462aff39315571",
        "region_labels_plot.txt": "072fa818f69c888dfa48b761ec6ead537c36593464e4e30ec131674ab275ef75",
        "regions_dropped.txt": "d0ce70b52704282e566b15d07d7df186fdcf2831a925a28607f469e4e1adaa11",
        "dtn_results.txt": "db08eb6a6fc58ee5537b5a8d1c2ca805154a43ec64ca1e16b4d6e9fef1fc136d",
        "dtn_summary.txt": "684fb52c332b6f5213a386410710c271b997c02fec56728645b9395a62cbc53c",
        "ingest_summary.txt": "a09d8ca7e4bfa1f2a8f1f801793ca513b22bb7566b61cc0a4bfa142849caba26",
        "rejects.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ccdf_stay_time.txt": "3e4893b76770191c3fa713f81c444d4419b016872eda25c802c61a003c43b92e",
        "ccdf_trip_duration.txt": "c176318c91e1c4c791a345dd5741bcde22f68ea9a7477ed58f7d519f7708ddfd",
        "ccdf_trip_length.txt": "adf622771ac77d5921b1ed1974c4a9e4a0e876e0dd1855746738a32ad0bd5e08",
        "fits_stay_time.txt": "ae22097a6ae2efea1484e1a2c01fc889827e353c5cbb8753289266769edc21fc",
        "fits_trip_duration.txt": "c5f01084b69b80f9cd33c1f0ab0f6c3cdce9e717a56247649eb02073366e35a6",
        "fits_trip_length.txt": "6d24debd33aa9b3af5ad9ccde317e676fd559c108bc6594b1860522727f00a55",
    }

    def test_fixture(self, fixture_dir, tmp_path):
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", str(tmp_path / "out"))])
        whole = _all_then_stages(cfg)
        assert {name: hashlib.sha256(whole[name]).hexdigest()
                for name in self.FIXTURE_SHA256} == self.FIXTURE_SHA256

    def test_loadtxt_path_reads_each_artifact_as_the_per_line_path(self, completed_run,
                                                                    monkeypatch):
        """Every artifact a stage reads back takes the loadtxt path in every
        chunk, and reads to the same values with that path turned off."""
        from cityregions import ingest

        readers = {name: row[1] for name, row in _ARTIFACTS.items()
                   if row[1] is not None and name != "trace.txt"}
        assert sorted(readers) == ["events.txt", "labels.txt", "stops.txt", "tree.txt",
                                   "trips.txt"]

        def read_all():
            return {name: _value_bits(read(os.path.join(completed_run.out_dir, name)))
                    for name, read in readers.items()}

        def refuse(*args):
            raise AssertionError("a chunk fell back to the per-line path")

        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_line_columns", refuse)
            fast = read_all()
        monkeypatch.setattr(ingest, "_loadtxt_columns", lambda text, fields: None)
        assert read_all() == fast

    def test_dirty_multi_file_input(self, tmp_path):
        raw = fixture_config(str(tmp_path / "out"), "")
        raw.update(datasets=_dirty_datasets(tmp_path), utc_offset_hours=8)
        whole = _all_then_stages(parse_config(raw))
        summary = dict(line.split(";") for line in whole["ingest_summary.txt"].decode().split())
        assert summary == {"input_lines": "1109", "accepted": "1105", "deduplicated": "2",
                           "rejected": "2", "clipped_out_of_bounds": "1",
                           "points_written": "1104"}
        assert whole["rejects.txt"].decode().splitlines() == [
            "11;blank line", "12;expected 4 ','-separated fields, got 2"]
        assert b"\n9;" in whole["trace.txt"]
        assert whole["trips.txt"].splitlines()[-1].startswith(b"9;")

    @pytest.mark.parametrize("taxi_id", [" 9 ", "9 ", "a;b", "a\nb", 9])
    def test_configured_id_that_trace_txt_would_change_is_refused(self, tmp_path, capsys,
                                                                  taxi_id):
        raw = fixture_config(str(tmp_path / "out"), "")
        raw.update(datasets=_dirty_datasets(tmp_path), utc_offset_hours=8)
        raw["datasets"][2]["taxi_id"] = taxi_id
        reported = (f"datasets[2].taxi_id: must read back unchanged from a trace.txt line "
                    f"(a string with no ';', newline or surrounding space), got {taxi_id!r}")
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [reported]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        assert reported in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beijing_id_holding_a_semicolon_is_rejected(self, tmp_path):
        tz = timezone(timedelta(hours=8))
        lines = []
        for p in points_of(three_taxi_trace()):
            local = datetime.fromtimestamp(p.timestamp, tz)
            lines.append(f"{p.taxi_id},{local:%Y-%m-%d %H:%M:%S},{p.lon!r},{p.lat!r}\n")
        lines.insert(3, "1;2,2008-02-02 08:00:00,116.4,39.95\n")
        path = tmp_path / "semicolon.txt"
        path.write_text("".join(lines), encoding="utf-8")
        raw = fixture_config(str(tmp_path / "out"), "")
        raw.update(datasets=[{"path": str(path), "format": "beijing"}], utc_offset_hours=8)
        whole = _all_then_stages(parse_config(raw))
        assert whole["rejects.txt"].decode().splitlines() == ["4;taxi id holds ';': '1;2'"]
        summary = dict(line.split(";") for line in whole["ingest_summary.txt"].decode().split())
        assert (summary["input_lines"], summary["rejected"]) == (str(len(lines)), "1")
        assert b"1;2;" not in whole["trace.txt"]

    @staticmethod
    def _renamed_taxi_1(tmp_path, taxi_id):
        """Artifacts of the fixture as one T-Drive file, taxi 1 renamed taxi_id."""
        tz = timezone(timedelta(hours=8))
        lines = []
        for p in points_of(three_taxi_trace()):
            local = datetime.fromtimestamp(p.timestamp, tz)
            lines.append(f"{taxi_id if p.taxi_id == '1' else p.taxi_id},"
                         f"{local:%Y-%m-%d %H:%M:%S},{p.lon!r},{p.lat!r}\n")
        path = tmp_path / "renamed.txt"
        path.write_bytes("".join(lines).encode())
        raw = fixture_config(str(tmp_path / "out"), "")
        raw.update(datasets=[{"path": str(path), "format": "beijing"}], utc_offset_hours=8)
        return _all_then_stages(parse_config(raw))

    def test_taxi_id_with_carriage_return(self, tmp_path):
        """Artifacts split on "\\n" only, so an id holding "\\r" reads back whole."""
        whole = self._renamed_taxi_1(tmp_path, "x\ry")
        for name in ("trace.txt", "trips.txt", "events.txt"):
            assert b"\nx\ry;" in whole[name], name

    def test_taxi_id_ending_in_nul(self, tmp_path):
        """The parsed columns keep a trailing NUL, which numpy's str dtype drops."""
        whole = self._renamed_taxi_1(tmp_path, "a\0")
        for name in ("trace.txt", "trips.txt", "events.txt"):
            assert b"\na\0;" in whole[name], name

    def test_all_parses_nothing_it_wrote(self, fixture_dir, tmp_path, monkeypatch):
        """Under ``all`` each stage gets what an earlier one wrote in memory."""
        from cityregions import functions, pipeline, regions, trajectory

        out = tmp_path / "out"

        def refuse(*args, **kwargs):
            raise AssertionError("an artifact written in this run was parsed")

        for module, attr in ((trajectory, "load_trips"), (trajectory, "load_stay_times"),
                             (regions, "load_events"), (regions, "load_tree"),
                             (functions, "load_labels")):
            monkeypatch.setattr(module, attr, refuse)
        parse = pipeline.parse_trace_file

        def parse_input(path, *args, **kwargs):
            assert Path(path) != out / "trace.txt", "trace.txt was parsed"
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "parse_trace_file", parse_input)
        cfg = load_config(str(fixture_dir / "config.json"), overrides=[("out_dir", str(out))])
        run(cfg, "all")
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.FIXTURE_SHA256} == self.FIXTURE_SHA256

    def test_trip_endpoint_visit_source(self, fixture_dir, tmp_path):
        """The tree is built over trip departures, then arrivals."""
        from cityregions.regions import build_quadtree, write_tree

        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", str(tmp_path / "out")),
                                     ("quadtree.visit_source", "trip_endpoints")])
        whole = _all_then_stages(cfg)
        trips = [line.split(";") for line in whole["trips.txt"].decode().splitlines()]
        coords = ([(float(f[2]), float(f[3])) for f in trips]
                  + [(float(f[5]), float(f[6])) for f in trips])
        tree = build_quadtree(coords, cfg.bounds, cfg.quadtree_threshold_fraction,
                              cfg.quadtree_depth_cap)
        buf = io.StringIO(newline="\n")
        write_tree(tree, buf)
        assert whole["tree.txt"] == buf.getvalue().encode()
        assert hashlib.sha256(whole["tree.txt"]).hexdigest() != self.FIXTURE_SHA256["tree.txt"]

    @pytest.mark.parametrize("dirty", [False, True], ids=["fixture", "dirty"])
    def test_kept_values_equal_what_their_readers_return(self, fixture_dir, tmp_path,
                                                         monkeypatch, dirty):
        """Column by column, bit for bit: the trace, trip and event tables, the
        stay times, the tree leaves and the labels ``all`` hands on."""
        from dataclasses import fields as dataclass_fields

        import numpy as np

        from cityregions import pipeline

        kept = {}
        write = pipeline._Workspace.write

        def write_and_look(ws, name, writer, keep=None):
            write(ws, name, writer, keep)
            if keep is not None:
                kept[name] = keep

        monkeypatch.setattr(pipeline._Workspace, "write", write_and_look)
        if dirty:
            raw = fixture_config(str(tmp_path / "out"), "")
            raw.update(datasets=_dirty_datasets(tmp_path), utc_offset_hours=8)
            cfg = parse_config(raw)
        else:
            cfg = load_config(str(fixture_dir / "config.json"),
                              overrides=[("out_dir", str(tmp_path / "out"))])
        run(cfg, "all")
        assert sorted(kept) == ["events.txt", "labels.txt", "stops.txt", "trace.txt",
                                "tree.txt", "trips.txt"]
        for name, value in kept.items():
            read = pipeline._ARTIFACTS[name][1](os.path.join(cfg.out_dir, name))
            assert type(read) is type(value), name
            if isinstance(value, np.ndarray):
                assert (value.dtype, value.shape, value.tobytes()) == (
                    read.dtype, read.shape, read.tobytes()), name
            elif hasattr(value, "__dataclass_fields__") and not isinstance(value, list):
                for f in dataclass_fields(value):
                    mine, theirs = getattr(value, f.name), getattr(read, f.name)
                    if isinstance(mine, np.ndarray):
                        assert (mine.dtype, mine.shape, mine.tobytes()) == (
                            theirs.dtype, theirs.shape, theirs.tobytes()), (name, f.name)
                    else:
                        assert mine == theirs, (name, f.name)
            else:
                assert value == read, name

    def test_kept_values_drop_after_their_last_reader(self, fixture_dir, tmp_path,
                                                      monkeypatch):
        from cityregions import pipeline

        kept = []
        record = pipeline._Workspace.record

        def record_and_look(ws, stage):
            record(ws, stage)
            kept.append((stage, sorted(ws.kept)))

        monkeypatch.setattr(pipeline._Workspace, "record", record_and_look)
        run(load_config(str(fixture_dir / "config.json"),
                        overrides=[("out_dir", str(tmp_path / "out"))]), "all")
        assert kept == [
            ("ingest", ["trace.txt"]),
            ("trips", ["stops.txt", "trace.txt", "trips.txt"]),
            ("regions", ["events.txt", "stops.txt", "tree.txt", "trips.txt"]),
            ("stats", ["events.txt", "tree.txt"]),
            ("functions", ["events.txt", "labels.txt"]),
            ("dtn", []),
        ]


class _Unpickled:
    """Unpickling one creates the file at path: a marker that pickle ran."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def _artifacts_but_manifest(out_dir):
    """hash_dir without manifest.json, which holds the config's out_dir."""
    return {name: sha for name, sha in hash_dir(out_dir).items() if name != "manifest.json"}


def _entry_arrays(entry):
    """A .parsed/ entry's arrays, the head first, and the offset each ends at."""
    arrays, ends = [], []
    with open(entry, "rb") as fh:
        while fh.peek(1):
            arrays.append(np.load(fh, allow_pickle=False))
            ends.append(fh.tell())
    return arrays, ends


def _write_entry(entry, arrays):
    with open(entry, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=True)


class TestParsedCache:
    """A stage run on its own keeps the columns it parses from trace.txt,
    trips.txt, stops.txt and events.txt in .parsed/<name>.columns, keyed by
    the file's sha256, the package sources and the numpy version."""

    @pytest.fixture(scope="class")
    def staged(self, fixture_dir, tmp_path_factory):
        """A config whose out dir holds what the six stages, each run alone, wrote."""
        out = tmp_path_factory.mktemp("staged") / "out"
        cfg = load_config(str(fixture_dir / "config.json"), overrides=[("out_dir", str(out))])
        for stage in STAGES:
            run(cfg, stage)
        return cfg

    @pytest.mark.parametrize("name", sorted(_PARSED_TYPES))
    def test_a_hit_equals_a_fresh_parse_and_skips_the_reader(self, staged, monkeypatch, name):
        from cityregions import pipeline

        path = os.path.join(staged.out_dir, name)
        producer, reader, last_reader = _ARTIFACTS[name]
        fresh = _value_bits(reader(path))

        def refuse(p):
            raise AssertionError(f"{p} was parsed")

        monkeypatch.setitem(pipeline._ARTIFACTS, name, (producer, refuse, last_reader))
        assert _value_bits(pipeline._Workspace(staged).read(name)) == fresh

    @pytest.mark.parametrize("spoil", ["edited_digit", "source_digest", "truncated_npy",
                                       "cut_after_a_column", "trailing_byte", "wrong_key",
                                       "object_npy", "zip_magic"])
    def test_a_spoiled_entry_is_parsed_again_and_replaced(self, staged, fixture_dir, tmp_path,
                                                           monkeypatch, spoil):
        from cityregions import pipeline, regions

        out = tmp_path / "out"
        shutil.copytree(staged.out_dir, out)
        cfg = load_config(str(fixture_dir / "config.json"), overrides=[("out_dir", str(out))])
        events, marker = out / "events.txt", tmp_path / "m"
        entry = out / PARSED_DIR / "events.txt.columns"
        (head, *columns), ends = _entry_arrays(entry)
        names = head[1:].tolist()
        if spoil == "edited_digit":  # the last digit of the first timestamp
            first, rest = events.read_text().split("\n", 1)
            taxi, region, t, kind = first.split(";")
            t = t[:-1] + str((int(t[-1]) + 1) % 10)
            events.write_text(f"{taxi};{region};{t};{kind}\n{rest}")
        elif spoil == "source_digest":
            monkeypatch.setattr(pipeline, "_source_digest", lambda: "0" * 64)
        elif spoil == "truncated_npy":
            entry.write_bytes(entry.read_bytes()[:-8])
        elif spoil == "cut_after_a_column":
            entry.write_bytes(entry.read_bytes()[:ends[names.index("t") + 1]])
        elif spoil == "trailing_byte":
            entry.write_bytes(entry.read_bytes() + b"\0")
        elif spoil == "wrong_key":
            _write_entry(entry, [np.array([_parsed_key("0" * 64), *names]), *columns])
        elif spoil == "zip_magic":  # what np.load would open as an .npz archive
            entry.write_bytes(b"PK\x03\x04" + entry.read_bytes()[4:])
        else:
            columns[names.index("t")] = np.array([_Unpickled(str(marker))], dtype=object)
            _write_entry(entry, [head, *columns])
        parses = []
        load_events = regions.load_events
        monkeypatch.setattr(regions, "load_events",
                            lambda fh: parses.append(fh.name) or load_events(fh))
        run(cfg, "dtn")
        assert parses == [str(events)]
        assert not marker.exists()
        key = _parsed_key(file_hash(str(events)))
        loaded = _load_parsed(str(entry), key, _PARSED_TYPES["events.txt"])
        with open(events, encoding="utf-8", newline="\n") as fh:
            assert _value_bits(loaded) == _value_bits(load_events(fh))
        assert sorted(os.listdir(out / PARSED_DIR)) == PARSED_ENTRIES
        if spoil not in ("edited_digit", "source_digest"):  # the same key as before
            assert parsed_bytes(out) == parsed_bytes(staged.out_dir)
        run(cfg, "dtn")
        assert parses == [str(events)]

    def test_two_stage_alone_runs_write_the_same_bytes(self, staged, fixture_dir, tmp_path):
        out = tmp_path / "out"
        cfg = load_config(str(fixture_dir / "config.json"), overrides=[("out_dir", str(out))])
        for stage in STAGES:
            run(cfg, stage)
        assert parsed_bytes(out) == parsed_bytes(staged.out_dir)
        assert sorted(os.listdir(out / PARSED_DIR)) == PARSED_ENTRIES
        # an entry gets the mode open() gives a new file, as every artifact does
        assert (os.stat(out / PARSED_DIR / "events.txt.columns").st_mode
                == os.stat(out / "events.txt").st_mode)

    def test_a_save_just_before_another_saves_rename(self, staged, fixture_dir, tmp_path,
                                                      monkeypatch):
        """Two stage runs that save the same entry at once both exit 0: the
        second run's whole save lands just before the first one's rename."""
        out = tmp_path / "out"
        shutil.copytree(staged.out_dir, out)
        shutil.rmtree(out / PARSED_DIR)
        argv = ["stats", "--config", str(fixture_dir / "config.json"), "--out", str(out)]
        second = []

        def save_another_first(real):
            def move(src, dst):
                if Path(dst).parent.name == PARSED_DIR and not second:
                    second.append(None)  # the second run's own moves go through as they are
                    second[0] = main(argv)
                return real(src, dst)
            return move

        for name in ("rename", "replace"):
            monkeypatch.setattr(os, name, save_another_first(getattr(os, name)))
        assert main(argv) == 0
        assert second == [0]
        assert _artifacts_but_manifest(out) == _artifacts_but_manifest(staged.out_dir)
        staged_entries = parsed_bytes(staged.out_dir)
        assert parsed_bytes(out) == {name: staged_entries[name]
                                     for name in ("stops.txt.columns", "trips.txt.columns")}

    def test_a_save_under_another_key_leaves_an_open_readers_value(self, staged, tmp_path,
                                                                    monkeypatch):
        """A reader returns the value its own key stands for, though a save
        under another key replaces the entry right after its first array."""
        out = tmp_path / "out"
        shutil.copytree(staged.out_dir, out)
        entry, kind = str(out / PARSED_DIR / "events.txt.columns"), _PARSED_TYPES["events.txt"]
        key, other = _parsed_key(file_hash(str(out / "events.txt"))), _parsed_key("0" * 64)
        events = _load_parsed(entry, key, kind)
        assert events is not None
        visits = events.select(events.visit)
        read = np.lib.format.read_array

        def read_then_save(*args, **kwargs):
            monkeypatch.setattr(np.lib.format, "read_array", read)
            array = read(*args, **kwargs)
            _save_parsed(entry, other, _to_columns(visits))
            return array

        monkeypatch.setattr(np.lib.format, "read_array", read_then_save)
        assert _value_bits(_load_parsed(entry, key, kind)) == _value_bits(events)
        assert _value_bits(_load_parsed(entry, other, kind)) == _value_bits(visits)
        assert _load_parsed(entry, key, kind) is None

    def test_an_entry_directory_of_the_earlier_layout_is_left_alone(self, staged, fixture_dir,
                                                                     tmp_path):
        """.parsed/events.txt/ as earlier versions wrote it (a key file and one
        .npy file per column) is not read: dtn parses events.txt and writes
        its entry beside that directory."""
        out = tmp_path / "out"
        shutil.copytree(staged.out_dir, out)
        shutil.rmtree(out / PARSED_DIR)
        old = out / PARSED_DIR / "events.txt"
        old.mkdir(parents=True)
        columns = _to_columns(_ARTIFACTS["events.txt"][1](str(out / "events.txt")))
        for name, column in columns.items():
            np.save(old / (name + ".npy"), column, allow_pickle=False)
        key = _parsed_key(file_hash(str(out / "events.txt")))
        (old / "key").write_text("".join(line + "\n" for line in (key, *columns)))
        before = parsed_bytes(out)
        assert main(["dtn", "--config", str(fixture_dir / "config.json"), "--out", str(out)]) == 0
        assert _artifacts_but_manifest(out) == _artifacts_but_manifest(staged.out_dir)
        entry = "events.txt.columns"
        assert parsed_bytes(out) == before | {entry: parsed_bytes(staged.out_dir)[entry]}


class TestDependencies:
    def test_dtn_without_regions_names_the_stage(self, fixture_dir, tmp_path):
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", str(tmp_path / "fresh"))])
        with pytest.raises(MissingArtifactError, match="run stage 'regions' first"):
            run(cfg, "dtn")

    def test_trips_without_ingest(self, fixture_dir, tmp_path):
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", str(tmp_path / "fresh2"))])
        with pytest.raises(MissingArtifactError, match="run stage 'ingest' first"):
            run(cfg, "trips")

    def test_unknown_stage(self, completed_run):
        with pytest.raises(ValueError, match="unknown stage"):
            run(completed_run, "render")


class TestChangedArtifacts:
    """A stage run alone refuses an artifact line its producer would not have written."""

    REPEAT = "repeats the taxi id and timestamp of line 1"
    GARBAGE = "expected 4 or 5 ';'-separated fields, got 1"

    @pytest.mark.parametrize("extra, first_bad, counts", [
        (["garbage", "{first}"], GARBAGE, "1 rejected, 1 repeated"),
        (["{first}", "garbage"], REPEAT, "1 rejected, 1 repeated"),
        (["{first}"], REPEAT, "0 rejected, 1 repeated"),
        (["", "garbage"], "blank line", "2 rejected, 0 repeated"),
    ], ids=["garbage_then_repeat", "repeat_then_garbage", "repeat", "blank_and_garbage"])
    def test_trace_txt_with_a_changed_line_is_refused(self, fixture_dir, tmp_path, capsys,
                                                      extra, first_bad, counts):
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["ingest", "--config", config, "--out", str(out)]) == 0
        trace = out / "trace.txt"
        lines = trace.read_text(encoding="utf-8").splitlines()
        trace.write_text("".join(line + "\n" for line in
                                 lines + [x.format(first=lines[0]) for x in extra]))
        capsys.readouterr()
        assert main(["trips", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {trace}: line {len(lines) + 1}: {first_bad} ({counts} line(s)); "
            f"rerun stage 'ingest'\n")
        assert not (out / "trips.txt").exists()

    @pytest.mark.parametrize("stage, name, line, message", [
        ("stats", "stops.txt", "1;0", "expected 5 stop fields, got 2"),
        ("dtn", "labels.txt", "7;bogus;0.0;0.0;0.0",
         "unknown label 'bogus'; expected one of "
         "('workplace', 'entertainment', 'residential', 'other')"),
    ], ids=["stops", "labels"])
    def test_malformed_stops_or_labels_line_exits_1(self, fixture_dir, tmp_path, capsys,
                                                    stage, name, line, message):
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["all", "--config", config, "--out", str(out)]) == 0
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert main([stage, "--config", config, "--out", str(out)]) == 1
        producer = _ARTIFACTS[name][0]
        assert capsys.readouterr().err == (
            f"error: {out / name}: {message}; rerun stage '{producer}'\n")

    @pytest.mark.parametrize("name", [name for name, (_, reader, _) in _ARTIFACTS.items()
                                      if reader is not None])
    def test_a_refused_artifact_names_its_file_and_producer(self, fixture_dir, tmp_path,
                                                            capsys, name):
        """Every artifact a stage reads back: its last reader, run alone, exits 1
        with the reader's own error between the path and the stage to rerun."""
        producer, reader, last_reader = _ARTIFACTS[name]
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["all", "--config", config, "--out", str(out)]) == 0
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write("a;1\n")
        with pytest.raises(ValueError) as refused:
            reader(str(out / name))
        capsys.readouterr()
        assert main([last_reader, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / name}: {refused.value}; rerun stage '{producer}'\n")

    @pytest.mark.parametrize("spoil", ["stages_list", "truncated", "list"])
    def test_a_bad_manifest_names_its_path(self, fixture_dir, tmp_path, capsys, spoil):
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["all", "--config", config, "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        text = manifest.read_text()
        if spoil == "stages_list":  # under the current config hash
            manifest.write_text(json.dumps({"config_hash": json.loads(text)["config_hash"],
                                            "stages": [1]}))
            reason = '"stages" must be an object, got a JSON list'
        elif spoil == "truncated":
            manifest.write_text(text[:20])
            with pytest.raises(json.JSONDecodeError) as err:
                json.loads(text[:20])
            reason = str(err.value)
        else:
            manifest.write_text("[]")
            reason = "must be a JSON object, got a JSON list"
        capsys.readouterr()
        assert main(["dtn", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {reason}\n"
        assert not (out / PARSED_DIR).exists()  # refused before the stage read events.txt

    def test_an_out_of_int64_region_id_exits_1(self, fixture_dir, tmp_path, capsys):
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["all", "--config", config, "--out", str(out)]) == 0
        with open(out / "events.txt", "a", encoding="utf-8") as fh:
            fh.write(f"a;{2**63};1.0;visit\n")
        capsys.readouterr()
        assert main(["functions", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'events.txt'}: Python int too large to convert to C long; "
            f"rerun stage 'regions'\n")


SLOT = "[day, hour] ints with day 0-6 and hour 0-23"
SCENARIO = {"name": "s", "eval_start": 1, "eval_end": 2, "history_start": 0, "history_end": 1}


class TestConfig:
    def good_raw(self, tmp_path):
        return {
            "datasets": [{"path": str(tmp_path / "x.txt"), "format": "canonical"}],
            "bounds": {"lat_min": 0, "lat_max": 1, "lon_min": 0, "lon_max": 1},
            "out_dir": str(tmp_path / "out"),
        }

    def test_validation_lists_every_violation(self, tmp_path):
        raw = self.good_raw(tmp_path)
        raw["segment_gap_s"] = -5
        raw["minsup"] = 3.0
        raw["datasets"][0]["format"] = "nyc"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        text = "\n".join(err.value.violations)
        assert "segment_gap_s" in text
        assert "minsup" in text
        assert "format" in text
        assert len(err.value.violations) == 3

    @pytest.mark.parametrize("key, value, reported", [
        ("quadtree", [1], "quadtree: must be an object"),
        ("dtn", [1], "dtn: must be an object"),
        ("datasets", ["x"], "datasets[0]: must be an object"),
        ("utc_offset_hours", "abc", "utc_offset_hours: must be a number, got 'abc'"),
    ], ids=["quadtree-list", "dtn-list", "dataset-string", "utc-offset-string"])
    def test_malformed_section_is_listed_beside_other_violations(
            self, tmp_path, capsys, key, value, reported):
        raw = self.good_raw(tmp_path)
        raw[key] = value
        raw["minsup"] = 3.0
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert sorted(err.value.violations) == sorted(
            [reported, "minsup: must be in (0, 1], got 3.0"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        assert reported in capsys.readouterr().err

    @pytest.mark.parametrize("patch, reported", [
        ({"quadtree": {"depth_cap": True}},
         "quadtree.depth_cap: must be a non-negative int, got True"),
        ({"dtn": {"runs": True}}, "dtn.runs: must be a positive int, got True"),
        ({"dtn": {"bin_width_s": float("inf")}},
         "dtn.bin_width_s: must be positive and finite, got inf"),
        ({"rng_seed": True}, "rng_seed: must be an int, got True"),
        ({"dtn": {"policies": "oracle"}}, "dtn.policies: must be a list"),
        ({"time_windows": {"work": [[7, 9]]}},
         f"time_windows.work[0]: must be {SLOT}, got [7, 9]"),
        ({"time_windows": {"home": [[2, 24]]}},
         f"time_windows.home[0]: must be {SLOT}, got [2, 24]"),
        ({"segment_gap_s": "1800"}, "segment_gap_s: must be positive, got '1800'"),
        ({"bounds": {"lat_min": "0", "lat_max": 1, "lon_min": 0, "lon_max": 1}},
         "bounds.lat_min: must be a number, got '0'"),
        ({"bounds": {"lat_min": 0, "lat_max": 1, "lon_min": 0}}, "bounds.lon_max: required"),
        ({"bounds": [0, 1, 0, 1]}, "bounds: must be an object"),
        ({"dtn": {"scenarios": [dict(SCENARIO, eval_start=True)]}},
         "dtn.scenarios[0].eval_start: must be a finite number, got True"),
        ({"dtn": {"scenarios": [dict(SCENARIO, name=5)]}},
         "dtn.scenarios[0].name: must be a string with no ';', newline or carriage return, "
         "got 5"),
        ({"dtn": {"scenarios": [{k: v for k, v in SCENARIO.items() if k != "eval_end"}]}},
         "dtn.scenarios[0].eval_end: required"),
        ({"time_windows": {"work": [[1.5, 8]]}},
         f"time_windows.work[0]: must be {SLOT}, got [1.5, 8]"),
        ({"time_windows": {"home": [[0, 1], [True, "9"]]}},
         f"time_windows.home[1]: must be {SLOT}, got [True, '9']"),
        ({"time_windows": {"work": [[0, 9, 1]]}},
         f"time_windows.work[0]: must be {SLOT}, got [0, 9, 1]"),
        ({"time_windows": {"work": 9}}, "time_windows.work: must be a list"),
        ({"out_dir": True}, "out_dir: must be a non-empty string, got True"),
        ({"out_dir": ""}, "out_dir: must be a non-empty string, got ''"),
        ({"datasets": [{"path": 5, "format": "canonical"}]},
         "datasets[0].path: must be a non-empty string, got 5"),
        ({"datasets": [{"format": "canonical"}]}, "datasets[0].path: required"),
        ({"datasets": [{"path": "a.txt", "format": "sanfrancisco"}]},
         "datasets[0].taxi_id: required for format 'sanfrancisco'"),
    ], ids=["depth-cap-bool", "runs-bool", "bin-width-inf", "rng-seed-bool", "policies-string",
            "work-day-7", "home-hour-24", "gap-numeric-string", "bound-string",
            "bound-missing", "bounds-list", "scenario-start-bool", "scenario-name-int",
            "scenario-end-missing", "slot-day-float", "slot-bool-and-string",
            "slot-three-ints", "slots-int", "out-dir-bool", "out-dir-empty",
            "path-int", "path-missing", "sanfrancisco-without-id"])
    def test_misparsed_value_is_refused(self, tmp_path, patch, reported):
        raw = self.good_raw(tmp_path)
        raw.update(patch)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [reported]

    @pytest.mark.parametrize("key", ["eval_start", "eval_end", "history_start", "history_end"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400],
                             ids=["inf", "-inf", "nan", "int-past-float"])
    def test_scenario_time_that_is_not_finite_is_refused(self, tmp_path, capsys, key, value):
        raw = self.good_raw(tmp_path)
        raw["dtn"] = {"scenarios": [dict(SCENARIO, **{key: value})]}
        reported = f"dtn.scenarios[0].{key}: must be a finite number, got {value!r}"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [reported]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))  # inf and nan as JSON's Infinity and NaN tokens
        assert main(["all", "--config", str(path)]) == 2
        assert reported in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the last second of year 9999 and the first of year 1, in UTC
    LAST_S, FIRST_S = 253402300799.0, -62135596800.0

    @pytest.mark.parametrize("times, offset, keys", [
        ({"eval_start": 2.5e11, "eval_end": 2.6e11}, 0, ["eval_end"]),
        ({"eval_start": 2.6e11, "eval_end": 2.7e11}, 8, ["eval_start", "eval_end"]),
        ({"history_start": 0.0, "history_end": LAST_S - 3600.0}, 8, ["history_end"]),
        ({"history_start": FIRST_S, "history_end": 0.0}, -5.5, ["history_start"]),
        ({"eval_start": FIRST_S - 1.0}, 0, ["eval_start"]),
    ], ids=["end-past-9999", "both-past-9999", "past-9999-at-utc+8", "year-0-at-utc-5.5",
            "before-year-1"])
    def test_scenario_time_past_datetimes_range_is_refused(self, tmp_path, capsys, times,
                                                           offset, keys):
        raw = self.good_raw(tmp_path)
        raw["utc_offset_hours"] = offset
        raw["dtn"] = {"scenarios": [dict(SCENARIO, **times)]}
        reported = [f"dtn.scenarios[0].{key}: must lie in years 1 to 9999 at utc_offset_hours, "
                    f"got {times[key]!r}" for key in keys]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert [v for v in err.value.violations if "9999" in v] == reported
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        stderr = capsys.readouterr().err
        assert all(line in stderr for line in reported)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times, offset", [
        ({"eval_start": LAST_S - 3600.0, "eval_end": LAST_S}, 0),
        ({"history_start": FIRST_S, "history_end": FIRST_S + 1.0}, 0),
        ({"history_start": FIRST_S + 3600.0, "history_end": LAST_S - 3600.0}, 1),
    ], ids=["last-hour", "first-second", "both-ends-at-utc+1"])
    def test_scenario_times_at_datetimes_edges_are_taken(self, tmp_path, times, offset):
        raw = self.good_raw(tmp_path)
        raw["utc_offset_hours"] = offset
        raw["dtn"] = {"scenarios": [dict(SCENARIO, **times)]}
        (spec,) = parse_config(raw).dtn_scenarios
        assert {k: getattr(spec, k) for k in times} == times

    @pytest.mark.parametrize("key, reported", [
        ("segment_gap_s", "positive"),
        ("stop_distance_m", "positive"),
        ("stop_duration_s", "positive"),
        ("minsup", "in (0, 1]"),
        ("quadtree.threshold_fraction", "in (0, 1]"),
        ("stats_x_min", "positive or null"),
        ("utc_offset_hours", "a number"),
    ])
    def test_int_past_the_float_range_is_refused(self, tmp_path, capsys, key, reported):
        raw = self.good_raw(tmp_path)
        section, _, name = key.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[name] = 10**400
        message = f"{key}: must be {reported}, got {10**400!r}"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [message]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_a_bound_past_the_float_range_is_refused(self, tmp_path):
        raw = self.good_raw(tmp_path)
        raw["bounds"] = {"lat_min": 0, "lat_max": 10**400, "lon_min": 0, "lon_max": 1}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [f"bounds.lat_max: must be a number, got {10**400!r}"]

    def test_a_float_infinity_is_still_taken_where_it_was(self, tmp_path):
        raw = self.good_raw(tmp_path)
        raw.update(segment_gap_s=float("inf"), stop_duration_s=float("inf"))
        cfg = parse_config(raw)
        assert cfg.segment_gap_s == cfg.stop_duration_s == float("inf")

    @pytest.mark.parametrize("name", ["x;y\nz", ";", "a\rb", "\n"])
    def test_scenario_name_that_would_split_a_results_line_is_refused(self, tmp_path, capsys,
                                                                      name):
        raw = self.good_raw(tmp_path)
        raw["dtn"] = {"scenarios": [dict(SCENARIO, name=name)]}
        reported = (f"dtn.scenarios[0].name: must be a string with no ';', newline or "
                    f"carriage return, got {name!r}")
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [reported]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        assert reported in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, prefix", [
        ((), ""),
        (("quadtree",), "quadtree."),
        (("dtn",), "dtn."),
        (("bounds",), "bounds."),
        (("time_windows",), "time_windows."),
        (("datasets", 0), "datasets[0]."),
        (("dtn", "scenarios", 0), "dtn.scenarios[0]."),
    ], ids=["top", "quadtree", "dtn", "bounds", "time-windows", "dataset", "scenario"])
    def test_unknown_key_is_listed_beside_other_violations(self, tmp_path, capsys,
                                                           where, prefix):
        raw = self.good_raw(tmp_path)
        raw.update(quadtree={"depth_cap": 3}, time_windows={"work": [[0, 9]]},
                   dtn={"runs": 1, "scenarios": [{"name": "s", "eval_start": 1,
                                                  "eval_end": 2, "history_start": 0,
                                                  "history_end": 1}]})
        node = raw
        for step in where:
            node = node[step]
        node["minsupp"] = 0.9
        raw["minsup"] = 3.0
        reported = prefix + "minsupp: unknown key"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert sorted(err.value.violations) == sorted(
            [reported, "minsup: must be in (0, 1], got 3.0"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["all", "--config", str(path)]) == 2
        assert reported in capsys.readouterr().err

    @pytest.mark.parametrize("offset, accepted", [
        (24, False), (-24, False), (30, False), (23.5, True), (-5.5, True)])
    def test_utc_offset_is_within_a_day(self, fixture_dir, tmp_path, capsys,
                                        offset, accepted):
        raw = self.good_raw(tmp_path)
        raw["utc_offset_hours"] = offset
        if accepted:
            assert parse_config(raw).utc_offset_hours == offset
            return
        reported = f"utc_offset_hours: must be in (-24, 24), got {offset!r}"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [reported]
        out = tmp_path / "out"
        assert main(["all", "--config", str(fixture_dir / "config.json"), "--out", str(out),
                     "--stage-override", f"utc_offset_hours={offset}"]) == 2
        assert reported in capsys.readouterr().err
        assert not out.exists()

    def test_numbers_are_floats(self, tmp_path):
        raw = self.good_raw(tmp_path)
        raw.update(utc_offset_hours=8, segment_gap_s=1800, minsup=1,
                   dtn={"bin_width_s": 300})
        cfg = parse_config(raw)
        for value in (cfg.utc_offset_hours, cfg.segment_gap_s, cfg.minsup,
                      cfg.dtn_bin_width_s):
            assert type(value) is float

    def test_defaults_fill_in(self, tmp_path):
        cfg = parse_config(self.good_raw(tmp_path))
        assert cfg.segment_gap_s == 1800.0
        assert cfg.quadtree_threshold_fraction == 0.01
        assert cfg.minsup == 0.2
        assert cfg.dtn_policies == ("oracle", "history", "random")

    def test_config_hash_changes_iff_fields_change(self, tmp_path):
        raw = self.good_raw(tmp_path)
        base = config_hash(parse_config(raw))
        assert config_hash(parse_config(json.loads(json.dumps(raw)))) == base
        raw["minsup"] = 0.25
        assert config_hash(parse_config(raw)) != base

    def test_override_under_a_non_object_is_a_violation(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            load_config(str(fixture_dir / "config.json"),
                        overrides=[("quadtree", 1), ("quadtree.depth_cap", 3)])
        reported = ("quadtree: must be an object to take the override "
                    "'quadtree.depth_cap', got 1")
        assert err.value.violations == [reported]
        assert main(["all", "--config", str(fixture_dir / "config.json"), "--out", str(out),
                     "--stage-override", "quadtree=1",
                     "--stage-override", "quadtree.depth_cap=3"]) == 2
        assert reported in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"x"', "str")])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text, kind):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["all", "--config", str(path), "--stage-override", "minsup=0.5"]) == 2
        assert f"config: must be an object, got a JSON {kind}" in capsys.readouterr().err

    def test_overrides_apply_dotted_keys(self, fixture_dir):
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("quadtree.threshold_fraction", 0.5),
                                     ("rng_seed", 99)])
        assert cfg.quadtree_threshold_fraction == 0.5
        assert cfg.rng_seed == 99

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(7, "dtn:a:0") == derive_seed(7, "dtn:a:0")
        assert derive_seed(7, "dtn:a:0") != derive_seed(7, "dtn:a:1")
        assert derive_seed(7, "x") != derive_seed(8, "x")


# Every span a traced fixture run records, under ``all`` and then each stage
# alone: under ``all`` no stage reads back tree.txt. bench/tracer.py also
# wraps ``dtn.run_scenario``, the one wrapped attribute no stage calls
# (acceptance criterion 8 does), so it records no span here.
TRACED_SPANS = {
    "dtn.encounters", "dtn.in_window", "dtn.propagate", "dtn.select",
    "functions.apriori", "functions.classify_regions", "functions.hourly_transactions",
    "ingest.clip_to_bounds", "ingest.parse_trace_file.canonical", "ingest.write_canonical",
    "pipeline.atomic_write", "pipeline.file_hash", "pipeline.load_config",
    *(f"pipeline.stage.{stage}" for stage in ("all",) + STAGES),
    "regions.build_quadtree", "regions.load_events", "regions.load_tree",
    "regions.trips_to_events", "regions.write_events",
    "stats.compare_models", "stats.empirical_ccdf", "stats.fit_exponential",
    "stats.fit_lognormal", "stats.fit_powerlaw", "stats.fit_truncated_powerlaw",
    "trajectory.segment", "trajectory.detect_stops", "trajectory.extract_trips",
    "trajectory.load_trips", "trajectory.write_trips",
}


def test_benchmark_tracer_wraps_program_names(fixture_dir, tmp_path):
    """bench/tracer.py wraps module attributes by name; a renamed or deleted
    one breaks the benchmark, and one the stages no longer call reads 0. A
    traced fixture run records every span of ``TRACED_SPANS`` and counts calls
    of the scalar distance and of the quad-tree lookup."""
    repo = Path(__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(repo / 'bench')!r})\n"
        "from tracer import Tracer, install_all\n"
        "from cityregions import pipeline\n"
        "tracer = Tracer()\n"
        "install_all(tracer)\n"
        f"cfg = pipeline.load_config({str(fixture_dir / 'config.json')!r}, "
        f"[('out_dir', {str(tmp_path / 'out')!r})])\n"
        "for stage in ('all',) + pipeline.STAGES:\n"
        "    pipeline.run(cfg, stage)\n"
        "print(json.dumps([sorted({s[0] for s in tracer.spans}), tracer.counts]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    spans, counts = json.loads(out.stdout)
    assert set(spans) == TRACED_SPANS and len(TRACED_SPANS) == 36
    assert "dtn.run_scenario" not in spans
    assert counts["trajectory.great_circle.calls"] > 0
    assert counts["regions.locate.calls"] > 0


class TestCorrelationPath:
    def test_stats_stage_emits_correlation_with_grid_file(self, fixture_dir, tmp_path):
        import random

        from cityregions.ingest import CityBounds, GridCounts, write_grid_counts

        grid_path = tmp_path / "roads.txt"
        rng = random.Random(0)
        grid = GridCounts(CityBounds(39.90, 40.00, 116.30, 116.50), 4, 4,
                          tuple(rng.randrange(0, 50) for _ in range(16)))
        with open(grid_path, "w") as fh:
            write_grid_counts(grid, fh)
        out = str(tmp_path / "out")
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", out),
                                     ("grid_counts_path", str(grid_path))])
        for stage in ("ingest", "trips", "stats"):
            run(cfg, stage)
        corr = (tmp_path / "out" / "correlation.txt").read_text()
        assert corr.startswith("r;")
        r = float(corr.splitlines()[0].split(";")[1])
        assert -1.0 <= r <= 1.0

    @pytest.mark.parametrize("text, message", [
        ("1;2;39.9;40.0;116.3;116.5\n3\n\nx\n",
         "line 4: invalid literal for int() with base 10: 'x'"),
        ("1;y;39.9;40.0;116.3;116.5\n3\n4\n",
         "line 1: invalid literal for int() with base 10: 'y'"),
        ("1;2;39.9;40.0;116.3;116.5\n3\n", "expected 2 counts, got 1"),
    ], ids=["count", "header", "too_few"])
    def test_a_bad_grid_file_names_its_path(self, fixture_dir, tmp_path, capsys, text,
                                            message):
        grid_path = tmp_path / "roads.txt"
        grid_path.write_text(text)
        assert main(["all", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"),
                     "--stage-override", f"grid_counts_path={grid_path}"]) == 1
        assert capsys.readouterr().err == f"error: {grid_path}: {message}\n"


class TestPresets:
    def test_beijing_preset_parses_and_pins_paper_hours(self, tmp_path):
        from datetime import datetime, timedelta, timezone

        from cityregions.presets import beijing_config

        raw = beijing_config([str(tmp_path / "taxi1.txt")], str(tmp_path / "out"))
        cfg = parse_config(raw)
        assert cfg.utc_offset_hours == 8.0
        assert cfg.dtn_publishers == 100 and cfg.dtn_subscribers == 100
        assert [s.name for s in cfg.dtn_scenarios] == [
            "sunday_entertainment", "tuesday_work"]
        tz = timezone(timedelta(hours=8))
        for spec, (day, weekday) in zip(cfg.dtn_scenarios,
                                        [(3, 6), (5, 1)]):  # Sunday, Tuesday
            start = datetime.fromtimestamp(spec.eval_start, tz)
            assert (start.day, start.weekday(), start.hour) == (day, weekday, 15)
            assert spec.eval_end - spec.eval_start == 3600
            assert spec.eval_start - spec.history_start == 86400


class TestCli:
    def test_fixture_and_full_run(self, tmp_path, capsys):
        d = str(tmp_path / "demo")
        assert main(["fixture", "--out", d]) == 0
        assert main(["all", "--config", os.path.join(d, "config.json")]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_stage_override_flag(self, tmp_path):
        d = str(tmp_path / "demo2")
        main(["fixture", "--out", d])
        code = main(["ingest", "--config", os.path.join(d, "config.json"),
                     "--stage-override", "rng_seed=3"])
        assert code == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"datasets": [], "out_dir": "x"}')
        assert main(["all", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_artifact_exit_code(self, tmp_path, capsys):
        d = str(tmp_path / "demo3")
        main(["fixture", "--out", d])
        assert main(["dtn", "--config", os.path.join(d, "config.json")]) == 3
        assert "regions" in capsys.readouterr().err

    def test_fit_subcommand(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        import numpy as np
        rng = np.random.default_rng(0)
        samples.write_text("\n".join(str(v) for v in rng.exponential(10, 500)))
        assert main(["fit", str(samples)]) == 0
        out = capsys.readouterr().out
        assert "exponential" in out and "weight" in out

    def test_fit_names_the_file_and_line_of_a_non_numeric_value(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.5\n2.5\n\nabc\n3\n")
        assert main(["fit", str(samples)]) == 1
        assert capsys.readouterr().err == f"error: {samples}:4: not a number: 'abc'\n"

    def test_fit_names_the_file_and_line_of_an_infinite_value(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.5\n\n2.5\ninf\n3\n")
        assert main(["fit", str(samples)]) == 1
        assert capsys.readouterr().err == f"error: {samples}:4: not a finite number: 'inf'\n"
        # NaN and -inf are still dropped, each counted in its own note
        samples.write_text("1.5\nnan\n2.5\n-inf\n3\n")
        assert main(["fit", str(samples), "--out-prefix", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s_fits.txt").read_text().endswith(
            "\n# dropped 1 non-positive sample(s)\n# dropped 1 NaN sample(s)\n")

    def test_fit_writes_the_stats_stage_bytes(self, fixture_dir, tmp_path):
        """``fit`` drops a non-positive value as the stats stage does, and
        writes the fits and ccdf files the stage writes for the same samples."""
        config, out = str(fixture_dir / "config.json"), tmp_path / "out"
        assert main(["all", "--config", config, "--out", str(out)]) == 0
        with open(out / "stops.txt", "a", encoding="utf-8") as fh:
            fh.write("zz;10;8;39.95;116.4\n")  # a dwell of -2 s
        assert main(["stats", "--config", config, "--out", str(out)]) == 0
        rows = [line.split(";") for line in (out / "stops.txt").read_text().splitlines()]
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{float(r[2]) - float(r[1])!r}\n" for r in rows))
        assert "\n-2.0\n" in samples.read_text()
        assert main(["fit", str(samples), "--out-prefix", str(tmp_path / "s")]) == 0
        fits = (out / "fits_stay_time.txt").read_bytes()
        assert fits.endswith(b"\n# dropped 1 non-positive sample(s)\n")
        assert (tmp_path / "s_fits.txt").read_bytes() == fits
        assert (tmp_path / "s_ccdf.txt").read_bytes() == (out / "ccdf_stay_time.txt").read_bytes()

    def test_fit_error_names_the_sample_set(self, fixture_dir, tmp_path, capsys):
        # stops of 5000 s leave the fixture no trips
        assert main(["all", "--config", str(fixture_dir / "config.json"),
                     "--out", str(tmp_path / "out"),
                     "--stage-override", "stop_duration_s=5000"]) == 1
        assert capsys.readouterr().err == \
            "error: trip_length: need at least 2 samples, got 0\n"


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        from cityregions.pipeline import atomic_write

        path = tmp_path / "a.txt"
        atomic_write(str(path), lambda fh: fh.write("old\n"))

        def fail(fh):
            fh.write("half")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            atomic_write(str(path), fail)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
    def test_mode_is_what_open_gives(self, tmp_path, umask):
        from cityregions.pipeline import atomic_write

        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            atomic_write(str(tmp_path / "atomic.txt"), lambda fh: fh.write("x"))
        finally:
            os.umask(old)
        modes = {name: os.stat(tmp_path / name).st_mode for name in ("plain.txt", "atomic.txt")}
        assert modes["atomic.txt"] == modes["plain.txt"]

    def test_bytes_are_utf8_with_bare_newlines(self, tmp_path):
        from cityregions.pipeline import atomic_write

        atomic_write(str(tmp_path / "a.txt"), lambda fh: fh.write("\u00e9\r\nx\n"))
        assert (tmp_path / "a.txt").read_bytes() == b"\xc3\xa9\r\nx\n"

    def test_writes_to_one_path_do_not_share_a_temp_file(self, tmp_path):
        from cityregions.pipeline import atomic_write

        path = str(tmp_path / "a.txt")

        def outer(fh):
            fh.write("outer\n")
            atomic_write(path, lambda inner: inner.write("inner\n"))
            fh.write("end\n")

        atomic_write(path, outer)
        assert Path(path).read_text() == "outer\nend\n"
        assert os.listdir(tmp_path) == ["a.txt"]


def test_functions_stage_fails_on_a_nan_timestamp_as_before(fixture_dir, tmp_path):
    from cityregions.functions import local_hour_key

    cfg = load_config(str(fixture_dir / "config.json"),
                      overrides=[("out_dir", str(tmp_path / "out"))])
    for stage in ("ingest", "trips", "regions"):
        run(cfg, stage)
    events = tmp_path / "out" / "events.txt"
    events.write_text(events.read_text() + "1;0;nan;visit\n")
    with pytest.raises(ValueError) as expected:
        local_hour_key(float("nan"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        run(cfg, "functions")


class TestPlantedCityDtn:
    """functions + dtn on a small planted city where carrier ranking matters:
    publishers are fewer than the taxis active in either window, so a policy
    that ranks the wrong way picks other carriers."""

    # sha256 as the per-event reader, hour tables and DTN kernels wrote them,
    # before the column table
    SHA256 = {
        "labels.txt": "1bba7db39a1433a0aaff6516b3164c2f32d6473ad89b9399064cbfd8f8f5448c",
        "itemsets.txt": "b99d1913236e1130256879f4e5bc299d691d50346784f887b9d3d632cd2f5915",
        "dtn_results.txt": "6f6cef4d09f88e8f27681830d9072c227dae6a45f9c22e91ee5582b94a6ec92e",
        "dtn_summary.txt": "3c6a0f51f857b6d346df341ed8f2f442e2f15db23cc9c83a8bfcd14f57b488c7",
    }

    @staticmethod
    def planted(tmp_path):
        from cityregions.regions import build_quadtree, write_events, write_tree
        from cityregions.synth import SYNTH_T0, planted_city_events

        def utc(day, hour):
            return float(SYNTH_T0 + day * 86400 + hour * 3600)

        events = planted_city_events(7, n_taxis=60, n_regions=16, days=7)
        # functions and dtn never read the dataset entry; the config needs one
        raw = fixture_config(str(tmp_path / "out"), "unused.txt")
        raw.update(minsup=0.2, rng_seed=3, utc_offset_hours=0.0)
        raw["dtn"] = {
            "bin_width_s": 300.0, "publishers": 8, "subscribers": 10, "runs": 3,
            "policies": ["oracle", "history", "random"],
            "scenarios": [
                {"name": "tuesday_work", "eval_start": utc(1, 15), "eval_end": utc(1, 16),
                 "history_start": utc(0, 15), "history_end": utc(0, 16)},
                {"name": "sunday_entertainment", "eval_start": utc(6, 15),
                 "eval_end": utc(6, 16), "history_start": utc(5, 15),
                 "history_end": utc(5, 16)}]}
        cfg = parse_config(raw)
        os.makedirs(cfg.out_dir)
        b = cfg.bounds
        centres = [(b.lat_min + (i + 0.5) * (b.lat_max - b.lat_min) / 4,
                    b.lon_min + (j + 0.5) * (b.lon_max - b.lon_min) / 4)
                   for i in range(4) for j in range(4)]
        tree = build_quadtree(centres, b, 1 / 16, 2)
        with open(os.path.join(cfg.out_dir, "events.txt"), "w", encoding="utf-8") as fh:
            write_events(events, fh)
        with open(os.path.join(cfg.out_dir, "tree.txt"), "w", encoding="utf-8") as fh:
            write_tree(tree, fh)
        return cfg, events

    def test_pinned_artifacts(self, tmp_path):
        cfg, _ = self.planted(tmp_path)
        run(cfg, "functions")
        run(cfg, "dtn")
        got = {name: hashlib.sha256((Path(cfg.out_dir) / name).read_bytes()).hexdigest()
               for name in self.SHA256}
        assert got == self.SHA256

    def test_rows_equal_run_scenario(self, tmp_path):
        from cityregions import dtn
        from cityregions.functions import load_labels
        cfg, events = self.planted(tmp_path)
        run(cfg, "functions")
        run(cfg, "dtn")
        with open(os.path.join(cfg.out_dir, "labels.txt"), encoding="utf-8") as fh:
            labels = load_labels(fh)
        visits = events.select(events.visit)
        population = visits.present_taxi_ids()
        expected = []
        for spec in cfg.dtn_scenarios:
            window = (spec.eval_start, spec.eval_end)
            hot = dtn.hot_regions_for_window(window, labels, cfg.time_windows,
                                             cfg.utc_offset_hours)
            for r in range(cfg.dtn_runs):
                subs = dtn.select_random(population, cfg.dtn_subscribers,
                                         derive_seed(cfg.rng_seed, f"dtn:{spec.name}:{r}:subs"))
                for policy in cfg.dtn_policies:
                    sim = dtn.SimScenario(window, hot, frozenset(subs), cfg.dtn_publishers,
                                          policy, (spec.history_start, spec.history_end),
                                          derive_seed(cfg.rng_seed,
                                                      f"dtn:{spec.name}:{r}:{policy}"))
                    o = dtn.run_scenario(visits, sim, cfg.dtn_bin_width_s)
                    expected.append(f"{spec.name}:{policy};{r};{o.delivered};{o.total};"
                                    f"{o.delivery_ratio!r}")
        rows = (Path(cfg.out_dir) / "dtn_results.txt").read_text().splitlines()
        assert rows == expected
        # the policies disagree somewhere, so the rows can tell a ranking apart
        assert len({row.split(";", 1)[1] for row in rows}) > cfg.dtn_runs


def test_artifacts_do_not_depend_on_the_machine_time_zone(fixture_dir, tmp_path):
    """`cityregions all` on the fixture trace, a Beijing file and a Rome file
    writes the same bytes under two machine time zones (POSIX TZ strings, so
    no zoneinfo file is needed). A Rome stamp without an offset is refused
    rather than read in the machine's zone."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "beijing.txt").write_text(
        "b1,2008-02-04 23:10:00,116.40,39.95\nb1,2008-02-05 00:10:00,116.41,39.96\n"
        "b1,2008-02-05 07:59:59,116.42,39.97\n")
    (inputs / "rome.txt").write_text(
        "r1;2008-02-04 10:00:00+08;POINT(39.95 116.40)\n"
        "r1;2008-02-04 11:00:00.25+08:00;POINT(39.96 116.41)\n"
        "r1;2008-02-05 10:00:00;POINT(39.97 116.42)\n")
    raw = fixture_config("out", str(fixture_dir / "three_taxi_trace.txt"))
    raw["datasets"] += [{"path": str(inputs / "beijing.txt"), "format": "beijing"},
                        {"path": str(inputs / "rome.txt"), "format": "rome"}]
    repo = Path(__file__).resolve().parents[1]
    trees = []
    for name, tz in (("utc", "UTC0"), ("east", "XYZ-12:45")):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(raw))
        env = dict(os.environ, TZ=tz, PYTHONPATH=os.pathsep.join(
            p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "cityregions.cli", "all", "--config",
                        "config.json"], cwd=run_dir, env=env, capture_output=True, check=True)
        out = run_dir / "out"
        trees.append({path.relative_to(out).as_posix(): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert trees[0] == trees[1]
    rejects = trees[0]["rejects.txt"].decode()
    assert "timestamp without a UTC offset: '2008-02-05 10:00:00'" in rejects
