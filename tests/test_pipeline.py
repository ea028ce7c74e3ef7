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

import pytest

from cityregions.cli import main
from cityregions.fixtures import fixture_config, three_taxi_trace, write_fixture
from cityregions.pipeline import (ConfigError, MissingArtifactError, STAGES,
                                  config_hash, derive_seed, load_config,
                                  parse_config, run)

from .oracles import points_of


def hash_dir(path):
    from cityregions.pipeline import file_hash
    return {name: file_hash(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


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

    def test_rerun_all_is_byte_identical(self, fixture_dir, completed_run):
        before = hash_dir(completed_run.out_dir)
        run(completed_run, "all")
        assert hash_dir(completed_run.out_dir) == before

    def test_later_stages_do_not_mutate_predecessors(self, completed_run):
        trace_before = hash_dir(completed_run.out_dir)["trace.txt"]
        run(completed_run, "dtn")
        assert hash_dir(completed_run.out_dir)["trace.txt"] == trace_before


def _artifact_bytes(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def _all_then_stages(cfg):
    """Artifacts of run(cfg, "all"), after checking six single-stage runs
    into the same directory write the same bytes, manifest included."""
    run(cfg, "all")
    whole = _artifact_bytes(cfg.out_dir)
    shutil.rmtree(cfg.out_dir)
    for stage in STAGES:
        run(cfg, stage)
    assert _artifact_bytes(cfg.out_dir) == whole
    return whole


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
    # builder and carrier ranking were merged. fits_* (they depend on the scipy
    # version) and manifest.json (it holds input paths) are left out.
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
    }

    def test_fixture(self, fixture_dir, tmp_path):
        cfg = load_config(str(fixture_dir / "config.json"),
                          overrides=[("out_dir", str(tmp_path / "out"))])
        whole = _all_then_stages(cfg)
        assert {name: hashlib.sha256(whole[name]).hexdigest()
                for name in self.FIXTURE_SHA256} == self.FIXTURE_SHA256

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

    def test_taxi_id_with_carriage_return(self, tmp_path):
        """Artifacts split on "\\n" only, so an id holding "\\r" reads back whole."""
        tz = timezone(timedelta(hours=8))
        lines = []
        for p in points_of(three_taxi_trace()):
            taxi_id = "x\ry" if p.taxi_id == "1" else p.taxi_id
            local = datetime.fromtimestamp(p.timestamp, tz)
            lines.append(f"{taxi_id},{local:%Y-%m-%d %H:%M:%S},{p.lon!r},{p.lat!r}\n")
        path = tmp_path / "cr.txt"
        path.write_bytes("".join(lines).encode())
        raw = fixture_config(str(tmp_path / "out"), "")
        raw.update(datasets=[{"path": str(path), "format": "beijing"}], utc_offset_hours=8)
        whole = _all_then_stages(parse_config(raw))
        for name in ("trace.txt", "trips.txt", "events.txt"):
            assert b"\nx\ry;" in whole[name], name

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
            if isinstance(value, list) and value and isinstance(value[0], float):
                assert [v.hex() for v in value] == [v.hex() for v in read], name
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
        assert capsys.readouterr().err == f"error: {message}\n"


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
         "dtn.scenarios[0].eval_start: must be a number, got True"),
        ({"dtn": {"scenarios": [dict(SCENARIO, name=5)]}},
         "dtn.scenarios[0].name: must be a string, got 5"),
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
    ], ids=["depth-cap-bool", "runs-bool", "rng-seed-bool", "policies-string",
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


def test_benchmark_tracer_wraps_program_names(fixture_dir, tmp_path):
    """bench/tracer.py wraps module attributes by name; a renamed or deleted
    one breaks the benchmark, and a traced fixture run still records them.
    Like the benchmark's traced run, it runs the stages one by one too: under
    ``all`` no stage reads back tree.txt."""
    repo = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(repo / 'bench')!r})\n"
        "from tracer import Tracer, install_all\n"
        "from cityregions import pipeline\n"
        "tracer = Tracer()\n"
        "install_all(tracer)\n"
        f"cfg = pipeline.load_config({str(fixture_dir / 'config.json')!r}, "
        f"[('out_dir', {str(tmp_path / 'out')!r})])\n"
        "for stage in ('all',) + pipeline.STAGES:\n"
        "    pipeline.run(cfg, stage)\n"
        "print(' '.join(sorted({s[0] for s in tracer.spans})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    spans = set(out.stdout.split())
    assert {"regions.load_tree", "dtn.select", "functions.hourly_transactions",
            "stats.fit_truncated_powerlaw", "pipeline.stage.all"} <= spans


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
