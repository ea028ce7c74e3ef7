"""The benchmark's own tests, at tiny scale.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

TINY = {
    "tdrive_week": functools.partial(gen.write_tdrive_week, n_taxis=24, carriers=5),
    "planted_city": functools.partial(gen.write_planted_city, n_taxis=30, carriers=5),
    "fit_batch": functools.partial(gen.write_fit_batch, n_sets=8, n=2000),
}
SEED = 3


@pytest.fixture
def tiny(monkeypatch):
    for name, fn in TINY.items():
        monkeypatch.setitem(gen.GENERATORS, name, fn)


def _execute(tmp_path, workload, trace, name="work"):
    work = tmp_path / name
    work.mkdir()
    return run.execute(workload, SEED, 1.0, trace, str(work))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    digests = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        TINY[workload](str(tmp_path / name), seed)
        digests[name] = checks.digest(str(tmp_path / name))
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, tiny, workload, trace):
    line = _execute(tmp_path, workload, trace)["line"]
    assert line["correct"], line
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_set_up_probes_do_the_workloads_own_set_up(tmp_path, tiny, monkeypatch, workload):
    spawned = []
    spawn = run.Run.spawn

    def spy(self, **spec):
        child = spawn(self, **spec)
        spawned.append((spec, child))
        return child

    monkeypatch.setattr(run.Run, "spawn", spy)
    line = _execute(tmp_path, workload, False)["line"]
    probes = [child for spec, child in spawned if spec.get("setup_only")]
    assert len(probes) == run.SETUP_PROBES
    assert all(child.rc == 0 and "t_ready" in child.data for child in probes)
    assert line["correct"], line


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(tmp_path, tiny, workload):
    first, second = (_execute(tmp_path, workload, True, name)["line"]["metrics"]
                     for name in ("one", "two"))
    exact = {k for k, unit in run.PER_LAYER.items() if unit in ("count", "ratio", "B")}
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    busy = [k for k in exact if first[k]["value"] > 0]
    assert busy, "a traced run counts some work"


def test_traced_layers_match_the_workload(tmp_path, tiny):
    metrics = {k: v["value"] for k, v in
               _execute(tmp_path, "planted_city", True)["line"]["metrics"].items()}
    assert metrics["functions.frequent_itemsets"] > 0
    assert metrics["dtn.encounters.calls"] == 60  # 2 scenarios x 10 runs x 3 policies
    assert metrics["ingest.parse_trace_file.calls"] == 0
    assert metrics["trajectory.great_circle.calls"] == 0
    assert metrics["stats.fit_truncated_powerlaw.calls"] == 0
    assert metrics["pipeline.stage.functions.peak_rss_mb"] > 0
    assert metrics["pipeline.stage.dtn.peak_rss_mb"] > 0
    assert metrics["pipeline.stage.ingest.peak_rss_mb"] == 0


def test_a_failed_check_counts_without_aborting(tmp_path, tiny, monkeypatch):
    monkeypatch.setattr(run, "STOP_RECALL_FLOOR", 1.01)
    result = _execute(tmp_path, "tdrive_week", False)
    assert result["line"]["failed"] == 1 and not result["line"]["correct"]
    assert result["failures"][0].startswith("stop recall")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_what_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
